package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

const specPath = "../../BENCHMARK.json"

func TestSpecNamesAndWorkloads(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	var implemented []string
	for _, w := range workloads {
		implemented = append(implemented, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(implemented, ",") {
		t.Errorf("declared workloads %v, implemented %v", declared, implemented)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		t.Fatal("no metrics declared")
	}
	found := false
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			found = true
		}
	}
	if !found {
		t.Error("setup_s (s, lower) is not declared")
	}
}

func TestSpecRejectsBadNames(t *testing.T) {
	b := 0.1
	for _, s := range []spec{
		{Workloads: []workloadSpec{{Name: "bad name"}}},
		{Workloads: []workloadSpec{{Name: "a"}, {Name: "a"}}},
		{EndToEnd: []metricSpec{{Name: "m", Unit: "us", Better: "lower"}}},
		{EndToEnd: []metricSpec{{Name: "m", Unit: "µs", Better: "lower", Bound: &b}}},
		{PerLayer: []metricSpec{{Name: "m", Unit: "us", Better: "sideways"}}},
		{PerLayer: []metricSpec{{Name: "m", Unit: "us", Better: "lower", Bound: &b}}},
	} {
		if err := s.validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
	sp := &spec{EndToEnd: []metricSpec{{Name: "a", Unit: "s", Better: "lower", Bound: &b}}}
	if got := sp.undeclared(map[string]float64{"a": 1, "b": 2}, false); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("undeclared = %v, want [b]", got)
	}
	if got := missing(sp, map[string]float64{}, false); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("missing = %v, want [a]", got)
	}
}

// smokeOps is each workload's tiny untraced trial. serve-steady runs the
// tailOps its p99 needs, so every declared end-to-end name is emitted by
// some workload. A traced trial runs two decks.
var smokeOps = map[string]int{"serve-steady": tailOps, "serve-churn": 16, "sim-apps": 2 * len(appStrategies) * len(appInstances), "sim-halo": 8}

// simulated are the per-layer metrics that are simulated quantities: the
// same seed must give the same values.
var simulated = []string{"sim.apps_gbps", "sim.halo_gbps", "sim.windows_per_op"}

// TestSmoke runs every workload as one in-process trial, untraced and
// traced, at a tiny op count. Every op must succeed, every value must be
// finite, no undeclared name may be emitted and every declared one must be
// emitted by some workload, and a second traced trial on the same seed
// must repeat the simulated quantities exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := trialConfig{Workload: w.name, Seed: 7, Ops: smokeOps[w.name], Traced: traced, GiveUp: time.Minute}
			if traced {
				cfg.Ops = 2 * w.quantum
				cfg.TraceOut = filepath.Join(t.TempDir(), w.name+".json")
			}
			res := smokeTrial(t, cfg)
			for name := range res.Metrics {
				emitted[name] = true
			}
			if extra := sp.undeclared(res.Metrics, traced); len(extra) > 0 {
				t.Errorf("%s traced=%v: undeclared metrics %v", w.name, traced, extra)
			}
			if absent := missing(sp, res.Metrics, false); !traced && len(absent) > 0 &&
				!(cfg.Ops < tailOps && reflect.DeepEqual(absent, []string{"op_p99_us"})) {
				t.Errorf("%s: end-to-end metrics %v missing", w.name, absent)
			}
			if !traced {
				continue
			}
			checkChromeTrace(t, cfg.TraceOut)
			cfg.TraceOut = ""
			if a, b := pick(res.Metrics, simulated...), pick(smokeTrial(t, cfg).Metrics, simulated...); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: same-seed simulated quantities differ: %v vs %v", w.name, a, b)
			}
		}
	}
	var absent []string
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if !emitted[m.Name] {
				absent = append(absent, m.Name)
			}
		}
	}
	sort.Strings(absent)
	if len(absent) > 0 {
		t.Errorf("declared but never emitted: %v", absent)
	}
}

// smokeTrial runs one trial in process and requires every op to succeed
// and every metric to be finite.
func smokeTrial(t *testing.T, cfg trialConfig) trialResult {
	t.Helper()
	res, err := runTrial(cfg, time.Now())
	if err != nil {
		t.Fatalf("%s traced=%v: %v", cfg.Workload, cfg.Traced, err)
	}
	if res.Failed != 0 || res.Attempted < cfg.Ops {
		t.Fatalf("%s traced=%v: %d of %d attempted failed: %v", cfg.Workload, cfg.Traced, res.Failed, res.Attempted, res.Errors)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s %s = %v", cfg.Workload, name, v)
		}
	}
	return res
}

// pick returns the named entries of m that are present.
func pick(m map[string]float64, names ...string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}

// checkChromeTrace parses a written trace: complete events, each op
// enclosing its calls.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("%s: bad event %+v", path, ev)
		}
		names[ev.Name] = true
	}
	if !names["op"] || !names["bench.verify"] {
		t.Errorf("%s: events %v lack op or bench.verify spans", path, names)
	}
}

// TestReduce: a metric comes from the workload's own trials when any
// reported it, else from the other workloads' trials; every op counts.
func TestReduce(t *testing.T) {
	declared := []metricSpec{{Name: "own", Unit: "us"}, {Name: "foreign", Unit: "us"}, {Name: "none", Unit: "us"}}
	own := []trialResult{
		{Attempted: 10, Metrics: map[string]float64{"own": 1}},
		{Attempted: 10, Metrics: map[string]float64{"own": 3}},
		{Attempted: 10, Metrics: map[string]float64{"own": 2}},
	}
	others := []trialResult{{Attempted: 4, Failed: 1, Metrics: map[string]float64{"own": 100, "foreign": 7}}}
	r := reduce(own, others, declared)
	want := map[string]value{"own": {2, "us"}, "foreign": {7, "us"}}
	if !reflect.DeepEqual(r.Metrics, want) {
		t.Errorf("metrics %v, want %v", r.Metrics, want)
	}
	if r.Attempted != 34 || r.Failed != 1 || r.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 34, 1, false", r.Attempted, r.Failed, r.Correct)
	}
}

// stubLoad is a load whose op takes a fixed time.
type stubLoad struct{ d time.Duration }

func (s stubLoad) op(int, int, *tracer) (int64, error) { time.Sleep(s.d); return 1, nil }
func (stubLoad) ladder(int, int, *tracer) error        { return nil }
func (stubLoad) mark()                                 {}
func (stubLoad) counters(int) map[string]float64       { return nil }
func (stubLoad) close()                                {}

// TestGiveUpCountsFailed: the ops a trial does not start because it ran
// past its limit count as failed with an infinite latency, so a very slow
// build reads as a regression rather than a shorter run.
func TestGiveUpCountsFailed(t *testing.T) {
	lanes := []*tracer{newTracer(1, time.Now())}
	recs := runOps(stubLoad{5 * time.Millisecond}, lanes, 0, 20, 0, time.Now().Add(12*time.Millisecond))
	if len(recs) != 20 {
		t.Fatalf("%d records, want one per op (20)", len(recs))
	}
	failed := 0
	for _, r := range recs {
		if r.err != nil {
			failed++
			if !math.IsInf(r.us, 1) {
				t.Errorf("op not started has latency %v, want +Inf", r.us)
			}
		}
	}
	if failed == 0 || failed == len(recs) {
		t.Errorf("%d of %d ops failed, want some started and some cut off", failed, len(recs))
	}
}

// TestCompareFiles runs -compare on two -out files: ten runs a side, the
// change 40% slower on serve-steady's median latency.
func TestCompareFiles(t *testing.T) {
	write := func(name string, p50 float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i := 0; i < 10; i++ {
			rec := record{Workload: "serve-steady", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]value{"op_p50_us": {p50 + float64(i%3), "us"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var out strings.Builder
	regressed, err := runCompare(specPath, write("parent.jsonl", 100), write("change.jsonl", 140), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 40%% slower p50 was not reported as regressed:\n%s", out.String())
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(1, time.Now())
	tr.on = true
	op := tr.begin("op")
	a := tr.begin("x.a")
	time.Sleep(2 * time.Millisecond)
	tr.end(a)
	b := tr.begin("x.b")
	tr.end(b)
	tr.end(op)
	tr.on = false
	if tr.begin("x.c") != -1 {
		t.Error("a tracer switched off recorded a span")
	}
	s := tr.spans[op]
	if s.child != (tr.spans[a].end-tr.spans[a].start)+(tr.spans[b].end-tr.spans[b].start) {
		t.Errorf("op child time %d is not the sum of its children", s.child)
	}
	if self := s.end - s.start - s.child; self < 0 || self > s.end-s.start {
		t.Errorf("op self time %d outside [0, %d]", self, s.end-s.start)
	}
	if got := tr.durations("x.a"); len(got) != 1 || got[0] < 2000 {
		t.Errorf("x.a durations %v, want one of at least 2000 us", got)
	}
	if d, ok := tr.last("x.a"); !ok || d < 2000 {
		t.Errorf("last x.a = %v, %v; want at least 2000 us", d, ok)
	}
	tr.op++
	if _, ok := tr.last("x.a"); ok {
		t.Error("last found a span of an earlier op")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // untraced ops pass a nil tracer
	if nilTracer.tracing() {
		t.Error("a nil tracer is tracing")
	}
}

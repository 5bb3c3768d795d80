// Command spinbench is the end-to-end benchmark of spinddt: the served
// cycle (client, transport, session daemon, core session, plan kernels)
// and the simulated exchange (core offloads, the NIC model, the sharded
// simulator). Traced runs measure each layer on the workload that loads
// it, from the workload's own spans, ladder replays and counters.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	spinbench -workload serve-steady -seed 1 -seconds 22 -trace 0
//	spinbench -workload all -out out/bench.jsonl
//	spinbench -compare parent.jsonl change.jsonl
//
// Each workload runs as several trial processes, one at a time; every
// reported metric is the median over the trials. The last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics; metric names are checked against BENCHMARK.json. -compare
// judges two -out files of interleaved runs pair by pair. See
// bench/README.md for the workloads, metrics and noise protocol.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// specFile declares the workloads and metrics, relative to the
	// repository root the benchmark runs from.
	specFile = "BENCHMARK.json"
	// traceDir receives each traced run's Chrome trace, <workload>.json.
	traceDir = "out/trace"
	// trials is how many trial processes make one run of a workload.
	trials = 5
	// runLimit bounds the run of one workload, so a hung trial cannot
	// hold it past the three minutes a run may take.
	runLimit = 170 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
}

func main() {
	start := time.Now()
	var o options
	var trace int
	var compare bool
	var child string
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 22, "measured seconds per workload, split across the trials")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "append one JSON record per workload run to this file")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: spinbench -compare parent.jsonl change.jsonl")
	flag.StringVar(&child, "child", "", "run one trial in this process, configured by this JSON (the parent's protocol)")
	flag.Parse()
	o.traced = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files: parent and change")
			break
		}
		var regressed bool
		regressed, err = runCompare(specFile, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err == nil && regressed {
			os.Exit(1)
		}
	case child != "":
		var tc trialConfig
		var res trialResult
		if err = json.Unmarshal([]byte(child), &tc); err != nil {
			break
		}
		if res, err = runTrial(tc, start); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	default:
		err = runBench(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's output object, the last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as -out stores it and -compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Result   result  `json:"result"`
}

func runBench(o options) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var ws []workload
	selected := map[string]bool{}
	for _, d := range sp.Workloads {
		if o.workload != "all" && d.Name != o.workload {
			continue
		}
		w, ok := workloadByName(d.Name)
		if !ok {
			return fmt.Errorf("workload %s is declared in %s but not implemented", d.Name, specFile)
		}
		ws = append(ws, w)
		selected[w.name] = true
	}
	if len(ws) == 0 {
		return fmt.Errorf("workload %q is not declared in %s", o.workload, specFile)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %g is not positive", o.seconds)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit*time.Duration(len(ws)))
	defer cancel()

	// Trials run one at a time, round-robin across the workloads, so slow
	// drift of the machine spreads over every workload alike.
	perTrial := o.seconds / trials
	results := make([][]trialResult, len(ws))
	for k := 0; k < trials; k++ {
		for i, w := range ws {
			res, err := runChecked(ctx, exe, sp, trialFor(w, o.seed, k, perTrial, o.traced))
			if err != nil {
				return err
			}
			results[i] = append(results[i], res)
		}
	}
	// A traced run reports every per-layer metric. Those of the layers
	// the selected workloads do not load come from one shorter traced
	// trial of each workload that does.
	var others []trialResult
	if o.traced {
		for _, w := range workloads {
			if selected[w.name] {
				continue
			}
			res, err := runChecked(ctx, exe, sp, trialFor(w, o.seed, trials, perTrial/2, true))
			if err != nil {
				return err
			}
			others = append(others, res)
		}
	}

	for i, w := range ws {
		rec := record{Workload: w.name, Seed: o.seed, Traced: o.traced, Seconds: o.seconds,
			Result: reduce(results[i], others, sp.metrics(o.traced))}
		if absent := missing(sp, rec.Result.Metrics, o.traced); rec.Result.Correct && len(absent) > 0 {
			return fmt.Errorf("%s: declared metrics %v were not measured", w.name, absent)
		}
		for _, m := range sp.metrics(o.traced) {
			if v, ok := rec.Result.Metrics[m.Name]; ok {
				fmt.Printf("%s %s %s %s\n", w.name, m.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
			}
		}
		fmt.Printf("# %s: %d ops attempted, %d failed, correct %v\n", w.name, rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				return err
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// tailOps is the sample count at which a p99 has minTail samples beyond it.
const tailOps = 100 * minTail

// trialOps sizes a trial: about perTrial seconds of ops at the workload's
// nominal rate, a whole number of input decks, and in an untraced trial at
// least the tailOps its p99 needs. A traced trial runs an even number of
// decks, so its traced and untraced blocks see the same inputs.
func trialOps(w workload, perTrial float64, traced bool) int {
	n, q := w.rate*perTrial, w.quantum
	if traced {
		q *= 2
	} else {
		n = max(n, tailOps)
	}
	return max(q, int(math.Ceil(n/float64(q)))*q)
}

// trialFor configures trial k of a run. Each trial gets its own inputs,
// all derived from the run's seed; the first traced trial of a run writes
// the workload's Chrome trace.
func trialFor(w workload, seed int64, k int, perTrial float64, traced bool) trialConfig {
	tc := trialConfig{
		Workload: w.name,
		Seed:     seed*1000 + int64(k),
		Ops:      trialOps(w, perTrial, traced),
		Traced:   traced,
		GiveUp:   time.Duration((3*perTrial + 5) * float64(time.Second)),
	}
	if traced && k == 0 {
		tc.TraceOut = filepath.Join(traceDir, w.name+".json")
	}
	return tc
}

// runChecked runs one trial process, passes its failure messages on and
// refuses a metric BENCHMARK.json does not declare.
func runChecked(ctx context.Context, exe string, sp *spec, tc trialConfig) (trialResult, error) {
	res, err := runChild(ctx, exe, tc)
	if err != nil {
		return res, fmt.Errorf("%s trial (seed %d): %w", tc.Workload, tc.Seed, err)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "spinbench: %s trial (seed %d): %s\n", tc.Workload, tc.Seed, e)
	}
	if extra := sp.undeclared(res.Metrics, tc.Traced); len(extra) > 0 {
		return res, fmt.Errorf("%s trial (seed %d) emitted metrics %s does not declare: %v", tc.Workload, tc.Seed, specFile, extra)
	}
	return res, nil
}

// runChild runs one trial process and parses the result it prints.
func runChild(ctx context.Context, exe string, tc trialConfig) (trialResult, error) {
	var res trialResult
	arg, err := json.Marshal(tc)
	if err != nil {
		return res, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A trial must not outlive the run that started it, even if the run
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return res, err
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return res, fmt.Errorf("trial output: %w", err)
	}
	return res, nil
}

// reduce folds a workload's trials into one result: every declared metric
// becomes the median of the values its trials reported, or, when none
// did, of the values the other workloads' trials reported. Every op of
// every trial counts in attempted and failed.
func reduce(trials, others []trialResult, declared []metricSpec) result {
	r := result{Metrics: map[string]value{}}
	for _, t := range append(append([]trialResult(nil), trials...), others...) {
		r.Attempted += t.Attempted
		r.Failed += t.Failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	values := func(ts []trialResult, name string) []float64 {
		var vs []float64
		for _, t := range ts {
			if v, ok := t.Metrics[name]; ok {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for _, m := range declared {
		vs := values(trials, m.Name)
		if len(vs) == 0 {
			vs = values(others, m.Name)
		}
		if len(vs) > 0 {
			r.Metrics[m.Name] = value{median(vs), m.Unit}
		}
	}
	return r
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

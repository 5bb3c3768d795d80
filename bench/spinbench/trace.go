package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// tracer records spans around the calls the benchmark makes into each
// layer, and the samples its ladder replays take. It is owned by one
// goroutine. A nil tracer or one with on=false records no spans, so the
// same op code runs traced and untraced.
type tracer struct {
	on      bool
	lane    int // Chrome trace thread id: one lane per load-generating client
	origin  time.Time
	spans   []span
	open    []int32 // indices of the spans not yet ended, innermost last
	op      int
	samples map[string][]float64 // per-layer metric samples, by metric name
}

// span is one timed call. Times are nanoseconds since the trial origin;
// child is the summed duration of its direct children, so self time is
// end - start - child.
type span struct {
	name       string
	op         int
	start, end int64
	child      int64
}

// maxSpans bounds a trial's span memory; later spans are not recorded.
const maxSpans = 1 << 18

func newTracer(lane int, origin time.Time) *tracer {
	return &tracer{lane: lane, origin: origin, samples: map[string][]float64{}}
}

// tracing reports whether the current op is traced.
func (t *tracer) tracing() bool { return t != nil && t.on }

// add records one sample of a per-layer metric.
func (t *tracer) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// begin opens a span and returns its handle for end; -1 when not tracing.
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on || len(t.spans) >= maxSpans {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned and charges its duration to the
// enclosing span's children.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].child += s.end - s.start
	}
}

// durations returns the duration in microseconds of every recorded span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// last returns the duration in microseconds of the current op's most
// recent ended span with the given name.
func (t *tracer) last(name string) (float64, bool) {
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].op == t.op; i-- {
		if s := t.spans[i]; s.name == name && s.end > 0 {
			return float64(s.end-s.start) / 1e3, true
		}
	}
	return 0, false
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"); the
// file opens in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of every lane to path. Each event's
// category is the layer (the span name up to its first dot) and its args
// carry the op index and the self time.
func writeChromeTrace(path string, lanes []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for _, t := range lanes {
		for _, s := range t.spans {
			if s.end == 0 {
				continue
			}
			layer, _, _ := strings.Cut(s.name, ".")
			ev := traceEvent{
				Name: s.name, Cat: layer, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: t.lane,
				Args: map[string]any{"op": s.op, "self_us": float64(s.end-s.start-s.child) / 1e3},
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

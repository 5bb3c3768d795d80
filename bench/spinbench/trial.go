package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// trialConfig is one trial: a fresh process running one workload. The
// parent hands it to the child as JSON.
type trialConfig struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"` // timed ops
	// Traced alternates traced and untraced op blocks and reports the
	// per-layer metrics instead of the end-to-end ones.
	Traced bool `json:"traced"`
	// GiveUp stops starting ops once the loop has run this long, so a
	// pathologically slow build still finishes; the ops it never started
	// count as failed.
	GiveUp time.Duration `json:"give_up"`
	// TraceOut, when set, receives the trial's spans as a Chrome trace.
	TraceOut string `json:"trace_out,omitempty"`
}

// trialResult is what a trial reports to the parent process.
type trialResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

// maxErrors bounds the failure messages a trial reports.
const maxErrors = 5

func (r *trialResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// put records a metric when it is a finite number.
func (r *trialResult) put(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Metrics[name] = v
	}
}

// opRecord is one timed op. A failed op has an infinite latency, so
// failures can never improve a percentile.
type opRecord struct {
	us     float64
	bytes  int64
	traced bool
	err    error
}

// errGaveUp marks the ops a trial did not start because it ran past
// trialConfig.GiveUp.
var errGaveUp = errors.New("op not started: the trial ran past its time limit")

// runTrial runs one trial in this process: it sets the workload up, warms
// it up and runs the timed ops, then closes it. start is when the process
// began: set-up time runs from there to the first timed op. An untraced
// trial reports the end-to-end metrics. A traced one reports the tracing
// overhead and the per-layer metrics its workload's spans, ladder and
// counters give, and writes its spans to TraceOut.
func runTrial(cfg trialConfig, start time.Time) (trialResult, error) {
	res := trialResult{Metrics: map[string]float64{}}
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	l, err := w.setup(cfg.Seed, w.warmup+cfg.Ops, cfg.Traced)
	if err != nil {
		return res, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer l.close()
	lanes := make([]*tracer, w.clients)
	for i := range lanes {
		lanes[i] = newTracer(i+1, start)
	}
	for _, r := range runOps(l, lanes, 0, w.warmup, 0, time.Time{}) {
		if r.err != nil {
			return res, fmt.Errorf("%s warm-up op: %w", w.name, r.err)
		}
	}
	setup := time.Since(start).Seconds()

	block := 0 // ops per traced/untraced block; 0 = untraced trial
	if cfg.Traced {
		block = w.quantum
	}
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	runtime.ReadMemStats(&ms0)
	l.mark()
	t0 := time.Now()
	recs := runOps(l, lanes, w.warmup, w.warmup+cfg.Ops, block, t0.Add(cfg.GiveUp))
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)

	var lat, tracedLat, plainLat []float64
	var bytes int64
	completed := 0
	for _, r := range recs {
		res.Attempted++
		lat = append(lat, r.us)
		if r.traced {
			tracedLat = append(tracedLat, r.us)
		} else {
			plainLat = append(plainLat, r.us)
		}
		if r.err != nil {
			res.fail(r.err)
			continue
		}
		completed++
		bytes += r.bytes
	}

	if cfg.Traced {
		res.put("trace.overhead_frac", median(tracedLat)/median(plainLat)-1)
		for name, v := range layerMetrics(w, lanes) {
			res.put(name, v)
		}
		for name, v := range l.counters(completed) {
			res.put(name, v)
		}
		if cfg.TraceOut != "" {
			if err := writeChromeTrace(cfg.TraceOut, lanes); err != nil {
				return res, fmt.Errorf("trace: %w", err)
			}
		}
		return res, nil
	}
	cpu := float64(rusageMicros(ru1) - rusageMicros(ru0))
	n := float64(res.Attempted)
	res.put("setup_s", setup)
	res.put("ops_per_s", float64(completed)/wall)
	res.put("op_p50_us", median(lat))
	if p99, ok := tail(lat, 0.99); ok {
		res.put("op_p99_us", p99)
	}
	res.put("goodput_MBps", float64(bytes)/wall/1e6)
	res.put("cpu_us_per_op", cpu/n)
	res.put("alloc_KB_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/1024)
	res.put("max_rss_MB", float64(ru1.Maxrss)/1024) // Linux reports KiB
	return res, nil
}

// layerMetrics reduces a traced trial's spans and ladder samples, over all
// lanes, to the median of each per-layer metric.
func layerMetrics(w workload, lanes []*tracer) map[string]float64 {
	spans := append(append([]spanMetric(nil), commonSpans...), w.spans...)
	vals := map[string][]float64{}
	for _, t := range lanes {
		for _, sm := range spans {
			for _, d := range t.durations(sm.span) {
				vals[sm.metric] = append(vals[sm.metric], d*sm.scale)
			}
		}
		for name, v := range t.samples {
			vals[name] = append(vals[name], v...)
		}
	}
	out := map[string]float64{}
	for name, v := range vals {
		out[name] = median(v)
	}
	return out
}

func rusageMicros(ru syscall.Rusage) int64 {
	return ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
}

// runOps runs ops [from, to) over one closed-loop goroutine per lane,
// each taking the next op index when its previous op completes. With
// block > 0, ops alternate between traced and untraced blocks of that
// many ops, and every traced op is followed by the load's ladder, outside
// the op's timing. No op starts after giveUp (a zero time means never);
// the ops left are recorded as failed.
func runOps(l load, lanes []*tracer, from, to, block int, giveUp time.Time) []opRecord {
	var next atomic.Int64
	next.Store(int64(from))
	out := make([][]opRecord, len(lanes))
	var wg sync.WaitGroup
	for w, tr := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				if !giveUp.IsZero() && time.Now().After(giveUp) {
					out[w] = append(out[w], opRecord{us: math.Inf(1), err: errGaveUp})
					continue
				}
				tr.on = block > 0 && ((i-from)/block)%2 == 0
				tr.op = i
				s := tr.begin("op")
				t := time.Now()
				n, err := l.op(w, i, tr)
				us := float64(time.Since(t).Nanoseconds()) / 1e3
				tr.end(s)
				if err == nil && tr.on {
					err = l.ladder(w, i, tr)
				}
				r := opRecord{us: us, bytes: n, traced: tr.on, err: err}
				if err != nil {
					r.us = math.Inf(1)
				}
				out[w] = append(out[w], r)
			}
		}()
	}
	wg.Wait()
	var all []opRecord
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

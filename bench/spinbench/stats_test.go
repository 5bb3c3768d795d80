package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, math.Inf(1), 2}, 2},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestQuartilesMatchPython pins the interpolation to Python's
// statistics.quantiles(xs, n=4) (method "exclusive"); the expected values
// were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7, 1, 3, 9, 4, 2, 8, 6, 5, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := spread([]float64{10, 20, 30, 40}); s != 1 {
		t.Errorf("spread = %v, want 1 (IQR 25 over median 25)", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := tail(samples(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; fewer than ten lie beyond it")
	}
	v, ok := tail(samples(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := tail(samples(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
}

// TestFailureNeverImprovesPercentile: a failed op enters as +Inf, so
// replacing any sample by a failure can only raise the median and the tail.
func TestFailureNeverImprovesPercentile(t *testing.T) {
	base := make([]float64, 2000)
	for i := range base {
		base[i] = float64((i * 7919) % 2000)
	}
	p50, _ := tail(base, 0.5)
	p99, _ := tail(base, 0.99)
	for _, at := range []int{0, 1000, 1999} {
		failed := append([]float64(nil), base...)
		failed[at] = math.Inf(1)
		if got, _ := tail(failed, 0.5); got < p50 {
			t.Errorf("failure at %d lowered p50 %v -> %v", at, p50, got)
		}
		if got, _ := tail(failed, 0.99); got < p99 {
			t.Errorf("failure at %d lowered p99 %v -> %v", at, p99, got)
		}
		if median(failed) < median(base) {
			t.Errorf("failure at %d lowered the median", at)
		}
	}
	all := make([]float64, 1000)
	for i := range all {
		all[i] = math.Inf(1)
	}
	if v, ok := tail(all, 0.99); !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 of all-failed ops = %v, %v; want +Inf", v, ok)
	}
	var r trialResult
	r.Metrics = map[string]float64{}
	r.put("op_p99_us", math.Inf(1))
	if _, ok := r.Metrics["op_p99_us"]; ok {
		t.Error("an infinite percentile was emitted as a number")
	}
}

func bound(b float64) *float64 { return &b }

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: bound(0.1)}
	ten := func(base, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i%5)
		}
		return v
	}
	// The machine drifts by up to 30% over the runs, alike for both sides
	// of a pair: only the per-pair factor may count.
	drift := func(base, factor float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base * factor * (0.7 + 0.06*float64(i))
		}
		return v
	}
	noisy := ten(100, 0)
	for i := range noisy {
		noisy[i] = []float64{80, 150}[i%2]
	}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           verdict
	}{
		{"clear gain", lower, ten(100, 1), ten(80, 1), improved},
		{"within bound", lower, ten(100, 1), ten(103, 1), unchanged},
		{"beyond bound", lower, ten(100, 1), ten(120, 1), regressed},
		{"pairs disagree", lower, ten(100, 0), noisy, unresolved},
		{"drift cancels within pairs", lower, drift(100, 1), drift(100, 1.05), unchanged},
		{"drift does not hide a regression", lower, drift(100, 1), drift(100, 1.15), regressed},
		{"noisy but every run better", lower, ten(100, 10), ten(40, 10), improved},
		{"higher is better", metricSpec{Better: "higher", Bound: bound(0.1)}, ten(100, 1), ten(80, 1), regressed},
		{"per-layer worse", metricSpec{Better: "lower"}, ten(100, 1), ten(200, 1), noClaim},
		{"per-layer gain", metricSpec{Better: "lower"}, ten(100, 1), ten(50, 1), improved},
	} {
		if got := judge(c.m, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Nine wins in ten pairs is enough; eight is not.
	parent := ten(100, 0)
	change := ten(90, 0)
	change[0] = 110
	if got := judge(lower, parent, change); got.wins != 9 || got.verdict != improved {
		t.Errorf("9/10 wins: %+v, want improved", got)
	}
	change[1] = 110
	if got := judge(lower, parent, change).verdict; got == improved {
		t.Error("8/10 wins judged improved")
	}
	if got := judge(lower, ten(100, 1)[:9], ten(80, 1)[:9]).verdict; got == improved {
		t.Error("a gain claimed on nine pairs")
	}
}

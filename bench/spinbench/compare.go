package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords reads a -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	improved   verdict = "improved"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
	unchanged  verdict = "unchanged"
	noClaim    verdict = "-" // a per-layer metric that did not improve: it has no bound
)

// judgement is the comparison of one metric's runs on the parent commit
// and on the change, pair i being the i-th run on each side.
type judgement struct {
	parent, change [3]float64 // quartiles of each side
	worse          [3]float64 // quartiles of the per-pair worsening factors
	wins, pairs    int
	verdict        verdict
}

// minPairs is the fewest parent/change pairs a gain can be claimed on.
const minPairs = 10

// worsening is how many times worse c is than p: c/p for a metric where
// lower is better, p/c where higher is; above 1 means worse.
func worsening(m metricSpec, p, c float64) float64 {
	if m.Better == "higher" {
		p, c = c, p
	}
	switch {
	case c == p:
		return 1
	case p == 0:
		return math.Inf(1)
	}
	return c / p
}

// judge applies the benchmark's rules to runs made in pairs: run i of
// each side is meant to be made back to back with the other (alternating
// which goes first), so the machine's slow drift cancels within a pair
// though it moves the medians of the two sides. A gain needs at least
// minPairs pairs, the change winning nine tenths of them (ties count for
// neither) and the medians differing by more than the parent's
// interquartile distance. Otherwise each pair gives a worsening factor:
// when their spread (interquartile distance over median) exceeds the bound
// the metric is unresolved, unless every change run beats every parent
// run; it regressed when the median factor is worse than 1 by more than
// the bound. Per-layer metrics (bound nil) can only improve.
func judge(m metricSpec, parent, change []float64) judgement {
	var j judgement
	j.pairs = min(len(parent), len(change))
	parent, change = parent[:j.pairs], change[:j.pairs]
	j.parent[0], j.parent[1], j.parent[2] = quartiles(parent)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	worse := make([]float64, j.pairs)
	for i := range worse {
		worse[i] = worsening(m, parent[i], change[i])
		if worse[i] < 1 {
			j.wins++
		}
	}
	j.worse[0], j.worse[1], j.worse[2] = quartiles(worse)
	gap := math.Abs(j.change[1] - j.parent[1])
	switch {
	case j.pairs >= minPairs && 10*j.wins >= 9*j.pairs && worsening(m, j.parent[1], j.change[1]) < 1 && gap > j.parent[2]-j.parent[0]:
		j.verdict = improved
	case m.Bound == nil:
		j.verdict = noClaim
	case spread(worse) > *m.Bound && !allBetter(m, parent, change):
		j.verdict = unresolved
	case j.worse[1]-1 > *m.Bound:
		j.verdict = regressed
	default:
		j.verdict = unchanged
	}
	return j
}

func allBetter(m metricSpec, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if worsening(m, p, c) >= 1 {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// runCompare prints, for every workload and metric present on both sides,
// the medians and quartiles of each side and of the per-pair worsening
// factors, how many pairs the change won and the verdict. It reports
// whether any end-to-end metric regressed.
func runCompare(specPath, parentPath, changePath string, w io.Writer) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	type key struct {
		workload string
		traced   bool
	}
	series := func(recs []record) map[key]map[string][]float64 {
		out := map[key]map[string][]float64{}
		for _, r := range recs {
			k := key{r.Workload, r.Traced}
			if out[k] == nil {
				out[k] = map[string][]float64{}
			}
			for n, v := range r.Result.Metrics {
				out[k][n] = append(out[k][n], v.Value)
			}
		}
		return out
	}
	ps, cs := series(parent), series(change)
	var keys []key
	for k := range ps {
		if _, ok := cs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].traced != keys[b].traced {
			return !keys[a].traced
		}
		return keys[a].workload < keys[b].workload
	})
	anyRegressed := false
	row := "%-13s %-36s %-30s %-30s %-24s %6s %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "worse x median [q1 q3]", "wins", "verdict")
	for _, k := range keys {
		for _, m := range sp.metrics(k.traced) {
			p, c := ps[k][m.Name], cs[k][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			j := judge(m, p, c)
			anyRegressed = anyRegressed || j.verdict == regressed
			fmt.Fprintf(w, row, k.workload, m.Name,
				fmt.Sprintf("%.6g [%.6g %.6g]", j.parent[1], j.parent[0], j.parent[2]),
				fmt.Sprintf("%.6g [%.6g %.6g]", j.change[1], j.change[0], j.change[2]),
				fmt.Sprintf("%.3f [%.3f %.3f]", j.worse[1], j.worse[0], j.worse[2]),
				fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
		}
	}
	return anyRegressed, nil
}

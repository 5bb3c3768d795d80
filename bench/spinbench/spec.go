package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark reads: the declared
// workloads and metrics. Every name spinbench emits must be declared here,
// and a run whose ops all succeeded must report every declared metric of
// its kind, so the file and the program cannot drift apart silently.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// maxBound caps a regression bound: a looser one would let a real
// regression pass as noise.
const maxBound = 0.25

func loadSpec(path string) (*spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) validate() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q declared twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
	}
	for i, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		endToEnd := i == 0
		for _, m := range list {
			if err := name(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
			}
			switch {
			case endToEnd && m.Bound == nil:
				return fmt.Errorf("end-to-end metric %s has no bound", m.Name)
			case endToEnd && (*m.Bound < 0 || *m.Bound > maxBound):
				return fmt.Errorf("metric %s: bound %v outside [0, %v]", m.Name, *m.Bound, maxBound)
			case !endToEnd && m.Bound != nil:
				return fmt.Errorf("per-layer metric %s has a bound", m.Name)
			}
		}
	}
	return nil
}

// metrics returns the metric list a run emits: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// undeclared returns, sorted, the names in got that the spec does not
// declare for the run kind.
func (s *spec) undeclared(got map[string]float64, traced bool) []string {
	want := map[string]bool{}
	for _, m := range s.metrics(traced) {
		want[m.Name] = true
	}
	var extra []string
	for n := range got {
		if !want[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return extra
}

// missing returns the names s declares for the run kind that got lacks,
// in declaration order.
func missing[V any](s *spec, got map[string]V, traced bool) []string {
	var out []string
	for _, m := range s.metrics(traced) {
		if _, ok := got[m.Name]; !ok {
			out = append(out, m.Name)
		}
	}
	return out
}

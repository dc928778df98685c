package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is set only
// for end-to-end metrics: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json, the benchmark's contract: the workloads it
// runs and every metric it must print, with units.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if err := checkName(w.Name, seen); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	for _, m := range s.EndToEnd {
		if err := checkMetric(m, seen); err != nil {
			return err
		}
		if m.Bound == nil || !(*m.Bound > 0) || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range s.PerLayer {
		if err := checkMetric(m, seen); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	setup := s.endToEnd("setup_s")
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		return fmt.Errorf(`end-to-end metrics need setup_s with unit "s", better "lower"`)
	}
	return nil
}

func checkName(name string, seen map[string]bool) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("bad name %q", name)
	}
	if seen[name] {
		return fmt.Errorf("name %q used twice", name)
	}
	seen[name] = true
	return nil
}

func checkMetric(m metricSpec, seen map[string]bool) error {
	if err := checkName(m.Name, seen); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
	}
	return nil
}

func (s *benchSpec) endToEnd(name string) *metricSpec {
	for i := range s.EndToEnd {
		if s.EndToEnd[i].Name == name {
			return &s.EndToEnd[i]
		}
	}
	return nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricsFor is the metric set a run prints: every end-to-end metric with
// tracing off, every per-layer metric with tracing on.
func (s *benchSpec) metricsFor(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// selectMetrics returns the metrics a run prints — every metric declared
// for the mode, with its unit — and reports a declared metric the run did
// not measure, a value that is not a finite number, or a measured name
// BENCHMARK.json does not declare at all.
func (s *benchSpec) selectMetrics(trace bool, got map[string]float64) (map[string]metricValue, error) {
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		declared[m.Name] = true
	}
	var problems []string
	out := map[string]metricValue{}
	for _, m := range s.metricsFor(trace) {
		v, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", m.Name, v))
		default:
			out[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	for name := range got {
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, fmt.Errorf("metrics do not match %s: %v", specFile, problems)
	}
	return out, nil
}

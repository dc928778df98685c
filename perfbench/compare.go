package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// compareMain compares two sets of saved results of one workload, e.g. the
// parent commit's and a change's:
//
//	perfbench compare -base 'old/*.json' -new '.bench_build/results/sim-link-*-tracefalse-*.json'
//
// It prints each metric's median on both sides and, for end-to-end
// metrics, whether the change is worse than the parent by more than the
// metric's bound. It refuses results from unlike hosts (exit status 2).
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePat := fs.String("base", "", "glob of the parent's result files")
	newPat := fs.String("new", "", "glob of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	base, err := loadRecords(*basePat)
	if err == nil {
		var changed []resultRecord
		changed, err = loadRecords(*newPat)
		if err == nil {
			return compareRecords(spec, base, changed)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 1
}

func loadRecords(pattern string) ([]resultRecord, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var recs []resultRecord
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec resultRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// compareRecords prints the comparison and returns the exit status: 0, or
// 2 when the results come from different hosts, workloads or modes, or
// 3 when an end-to-end metric regressed beyond its bound.
func compareRecords(spec *benchSpec, base, changed []resultRecord) int {
	ref := base[0]
	for _, r := range append(append([]resultRecord(nil), base...), changed...) {
		if d := ref.Host.differences(r.Host); len(d) > 0 {
			fmt.Fprintf(os.Stderr, "compare: refusing to compare results from unlike hosts: %s\n", strings.Join(d, "; "))
			return 2
		}
		if r.Workload != ref.Workload || r.Trace != ref.Trace || r.Seconds != ref.Seconds {
			fmt.Fprintf(os.Stderr, "compare: results mix workloads or settings: %s/trace %v/%d s and %s/trace %v/%d s\n",
				ref.Workload, ref.Trace, ref.Seconds, r.Workload, r.Trace, r.Seconds)
			return 2
		}
	}
	fmt.Printf("%s, trace %v: %d parent runs, %d change runs\nhost: %s\nCPU time stolen by the hypervisor, worst run: parent %.1f%%, change %.1f%%\n",
		ref.Workload, ref.Trace, len(base), len(changed), ref.Host, maxSteal(base), maxSteal(changed))
	status := 0
	for _, m := range spec.metricsFor(ref.Trace) {
		b, c := medianOf(base, m.Name), medianOf(changed, m.Name)
		line := fmt.Sprintf("%-28s %14.6g -> %-14.6g %s", m.Name, b, c, m.Unit)
		if m.Bound != nil {
			worse := (c - b) / b
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > *m.Bound {
				verdict = "REGRESSION"
				status = 3
			}
			line += fmt.Sprintf("  %+.1f%% worse, bound %.0f%%: %s", 100*worse, 100**m.Bound, verdict)
		}
		fmt.Println(line)
	}
	return status
}

func medianOf(recs []resultRecord, name string) float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func maxSteal(recs []resultRecord) float64 {
	var m float64
	for _, r := range recs {
		m = max(m, r.StealPct)
	}
	return m
}

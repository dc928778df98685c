// Command perfbench is the repository's benchmark. It runs one of four
// workloads — the Study A single-link simulation, the Study B multi-hop
// simulation, and the live UDP forwarder at the smallest datagram size and
// in the paper's overloaded regime — and prints every metric BENCHMARK.json
// declares: the end-to-end metrics with tracing off, the per-layer metrics
// with tracing on. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// It exits non-zero when a correctness check fails or the run breaks.
// README.md describes the workloads and what each metric measures.
//
// Usage, from the repository root:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare -base <results> -new <results>
//	perfbench digests -workload <sim-link|sim-path> -seeds <from>-<to>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	specFile = "BENCHMARK.json"
	// outDir holds everything a run leaves behind: result records,
	// span traces and the build.
	outDir = ".bench_build"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sut":
			os.Exit(sutMain())
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "digests":
			os.Exit(digestsMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// runCtx is one run's settings.
type runCtx struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	spanFile string
	// sutGOMAXPROCS is reported back by the system-under-test process.
	sutGOMAXPROCS int
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"sim-link":  runSimWorkload,
	"sim-path":  runSimWorkload,
	"fwd-small": runFwdSmall,
	"fwd-pdd":   runFwdPDD,
}

// check is one correctness check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what a workload measured.
type outcome struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Checks    []check            `json:"checks"`
	Notes     []string           `json:"notes"`
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]float64{}} }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// resultRecord is the file each run saves under .bench_build/results, the
// input of "perfbench compare".
type resultRecord struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    bool     `json:"trace"`
	Seconds  int      `json:"seconds"`
	Time     string   `json:"time"`
	Host     hostInfo `json:"host"`
	// StealPct is the share of the host's CPU time the hypervisor gave to
	// other guests during the run; on a shared host it explains outliers.
	StealPct float64  `json:"steal_pct"`
	Result   *outcome `json:"result"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(*workload, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func run(workload string, seed uint64, seconds, traceFlag int) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	runner := workloads[workload]
	if runner == nil || !spec.hasWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	rc := &runCtx{
		workload: workload,
		seed:     seed,
		budget:   time.Duration(seconds) * time.Second,
		trace:    traceFlag == 1,
		spanFile: filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)),
	}
	fmt.Printf("perfbench %s seed %d, %d s, trace %d\n", workload, seed, seconds, traceFlag)
	steal0, total0 := cpuStat()
	out, err := runner(rc)
	if err != nil {
		return err
	}
	steal1, total1 := cpuStat()
	steal := 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	host := recordHost()
	host.SUTGOMAXPROCS = rc.sutGOMAXPROCS
	fmt.Println("host:", host)
	fmt.Printf("host CPU time stolen by the hypervisor during the run: %.2f%%\n", steal)
	metrics, err := spec.selectMetrics(rc.trace, out.Metrics)
	if err != nil {
		return err
	}

	for _, n := range out.Notes {
		fmt.Println("note:", n)
	}
	for _, c := range out.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("check %-28s %-6s %s\n", c.Name, verdict, c.Detail)
	}
	for _, m := range spec.metricsFor(rc.trace) {
		fmt.Printf("%-28s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d\n", out.Attempted, out.Failed)

	rec := resultRecord{Workload: workload, Seed: seed, Trace: rc.trace, Seconds: seconds,
		Time: time.Now().UTC().Format(time.RFC3339), Host: host, StealPct: steal, Result: out}
	if path, err := saveRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save result:", err)
	} else {
		fmt.Println("result saved to", path)
	}

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct(), out.Attempted, out.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.correct() {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

func saveRecord(rec resultRecord) (string, error) {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano()))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

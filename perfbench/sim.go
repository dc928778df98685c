package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pdds/internal/core"
)

// simRequest asks the system-under-test process to run a simulator
// workload; its reply is the workload's outcome.
type simRequest struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Budget   time.Duration `json:"budget_ns"`
	Trace    bool          `json:"trace"`
	SpanFile string        `json:"span_file"`
}

// runSimWorkload runs sim-link or sim-path in a child process, so that
// peak RSS and CPU time belong to the simulator alone.
func runSimWorkload(rc *runCtx) (*outcome, error) {
	p, err := startSUT()
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	rep, err := p.call(sutRequest{Op: "sim", Sim: &simRequest{
		Workload: rc.workload, Seed: rc.seed, Budget: rc.budget, Trace: rc.trace, SpanFile: rc.spanFile,
	}}, rc.budget+150*time.Second)
	if err != nil {
		return nil, err
	}
	rc.sutGOMAXPROCS = p.gomaxprocs
	if _, err := p.finish(); err != nil {
		return nil, err
	}
	return rep.Sim, nil
}

// runSim is the child's side of runSimWorkload.
func runSim(req *simRequest) (*outcome, error) {
	if req == nil {
		return nil, fmt.Errorf("sim: empty request")
	}
	switch {
	case req.Workload == "sim-link" && !req.Trace:
		return simLinkRun(req)
	case req.Workload == "sim-link":
		return simLinkTraced(req)
	case req.Workload == "sim-path" && !req.Trace:
		return simPathRun(req)
	case req.Workload == "sim-path":
		return simPathTraced(req)
	}
	return nil, fmt.Errorf("sim: unknown workload %q", req.Workload)
}

// simSeed derives the seed of a run's k-th simulation from the workload
// seed. The simulators treat seed 0 as 1, so derived seeds start at 1.
func simSeed(seed uint64, k int) uint64 { return seed*64 + uint64(k) + 1 }

// blockSize is the number of simulated departures whose host time makes
// one latency sample on the simulator workloads: the facades return only
// when a whole run ends, so the simulators' latency is the wall time the
// simulator takes to complete each block of this many packets.
const blockSize = 1024

// blockClock is a departure observer that timestamps the first departure
// (ending set-up) and every blockSize-th one. It reads the clock once per
// block, so it costs the simulator next to nothing.
type blockClock struct {
	start, last time.Time
	n           int
	first       time.Duration
	lat         []float64 // µs per block
}

func newBlockClock() *blockClock {
	now := time.Now()
	return &blockClock{start: now, last: now}
}

func (b *blockClock) observe(*core.Packet) {
	b.n++
	if b.n == 1 {
		now := time.Now()
		b.first = now.Sub(b.start)
		b.last = now
		return
	}
	if b.n%blockSize == 1 {
		now := time.Now()
		b.lat = append(b.lat, float64(now.Sub(b.last).Nanoseconds())/1e3)
		b.last = now
	}
}

// memSnap reads the Go runtime counters the go.* metrics derive from.
type memSnap struct {
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint64 `json:"num_gc"`
	PauseNs    uint64 `json:"pause_ns"`
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// goMetrics sets the go.* per-layer metrics for the interval a→b, in
// which pkts packets completed.
func goMetrics(o *outcome, a, b memSnap, pkts uint64) {
	o.Metrics["go.alloc_bytes_per_pkt"] = float64(b.TotalAlloc-a.TotalAlloc) / float64(max(pkts, 1))
	o.Metrics["go.gc_cycles"] = float64(b.NumGC - a.NumGC)
	o.Metrics["go.gc_pause_ms"] = float64(b.PauseNs-a.PauseNs) / 1e6
}

// zeroMetrics sets per-layer metrics of layers a workload does not run.
func zeroMetrics(o *outcome, names ...string) {
	for _, n := range names {
		o.Metrics[n] = 0
	}
}

var (
	simLayerNames = []string{"sim.events_per_pkt", "sim.self_ns_per_pkt", "traffic.draw_ns_per_pkt",
		"core.enqueue_ns", "core.dequeue_ns", "core.backlog_mean", "link.arrive_self_ns", "link.util",
		"stats.observe_ns_per_pkt", "stats.quantile_s", "stats.retained_mb",
		"network.hop_depart_ns", "network.hop_pkts", "trace.reconcile_ratio"}
	fwdLayerNames = []string{"netio.recv_batch_mean", "netio.recv_batch_max",
		"netio.c0.sojourn_p50_us", "netio.c1.sojourn_p50_us", "netio.c2.sojourn_p50_us", "netio.c3.sojourn_p50_us",
		"netio.c0.sojourn_p99_us", "netio.c1.sojourn_p99_us", "netio.c2.sojourn_p99_us", "netio.c3.sojourn_p99_us",
		"netio.path_p50_us", "netio.admit_drops", "netio.queued_mean", "netio.egress_ratio",
		"sink.sat_pps", "sink.lat_p99_us", "sink.hi_delay_p99_ms", "sink.lo_delay_p99_ms", "kernel.ingress_loss", "kernel.egress_loss",
		"gen.late_p99_us", "gen.late_max_ms", "gen.cpu_us_per_pkt", "gen.direct_pps"}
)

// Committed digests of each simulator workload's first simulation, per
// workload seed, regenerated with "perfbench digests".
//
//go:embed digests.json
var digestsJSON []byte

type digestTable map[string]map[string]string

func committedDigest(workload string, seed uint64) (string, bool) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return "", false
	}
	d, ok := t[workload][fmt.Sprint(seed)]
	return d, ok
}

// digest is a short hash of a report's JSON encoding, which prints every
// float exactly.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkDigest compares a simulation's digest with the committed one for
// the seed. Seeds without a committed digest are checked against the
// workload's invariants only, which the caller does either way.
func checkDigest(o *outcome, workload string, seed uint64, got string) {
	want, ok := committedDigest(workload, seed)
	if !ok {
		o.note("no committed digest for %s seed %d; invariants checked only", workload, seed)
		return
	}
	o.check("digest", got == want, "first simulation digest %s, committed %s", got, want)
}

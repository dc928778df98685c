package main

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pdds"
	"pdds/internal/network"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if !supports(1000, 0.99) || supports(999, 0.99) {
		t.Error("p99 needs exactly 1000 samples: 10 beyond it")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN")
	}
}

func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	lat := make([]float64, 8000)
	for i := range lat {
		lat[i] = float64(i % 100) // p99 of every window is 98.01
	}
	for i := 0; i < 100; i++ {
		lat[i] = 1e6 // a stall inside the first window
	}
	got, tails := windowedP99(lat)
	if len(tails) != tailWindows || tails[0] != 1e6 || math.Abs(got-98.01) > 1e-9 {
		t.Fatalf("windowed p99 %g, windows %v", got, tails)
	}
	if p, _ := windowedP99(lat[:999]); !math.IsNaN(p) {
		t.Fatalf("999 samples support no p99 window, got %g", p)
	}
}

// TestLateness checks the open-loop accounting: every datagram is stamped
// with the time it was due on the fixed schedule, lateness is measured
// from that time, and the sink measures one-way delay from it too.
func TestLateness(t *testing.T) {
	s, err := newSink()
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	p := newPlan(1, 1, classSplit, []int{smallSize}, nil)
	ph := newPhase(7, p, true)
	s.add(ph)
	gen, err := dialGen(s.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gen.conn.Close()
	const rate, dur = 2000, 200 * time.Millisecond
	res, err := generate(gen, genPhase{ph: ph, rate: rate, dur: dur})
	if err != nil {
		t.Fatal(err)
	}
	// A stall of the generator near the end can only cost datagrams.
	want := int64(rate * dur.Seconds())
	if res.sent < want*9/10 || res.sent > want+1 {
		t.Errorf("sent %d datagrams in %v at %d/s, want about %d", res.sent, dur, rate, want)
	}
	if int64(len(res.late)) != res.sent {
		t.Fatalf("%d lateness samples for %d datagrams", len(res.late), res.sent)
	}
	for i, l := range res.late {
		if l < 0 {
			t.Fatalf("datagram %d sent %g µs before it was due", i, l)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.counts(ph) < res.sent && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph.total != res.sent || ph.fifo != 0 || ph.bad != 0 {
		t.Fatalf("sink: %d of %d, fifo %d, bad %d", ph.total, res.sent, ph.fifo, ph.bad)
	}
	for i, d := range ph.delays {
		if float64(d) < float64(res.late[i]) {
			t.Fatalf("datagram %d: one-way delay %g µs shorter than its send lateness %g µs", i, d, res.late[i])
		}
	}
}

func TestSinkAccounting(t *testing.T) {
	s := &sink{phases: map[uint64]*phase{}}
	p := newPlan(3, 1, classSplit, []int{smallSize}, nil)
	ph := newPhase(9, p, true)
	s.add(ph)
	var seq [nClass]uint64
	buf := make([]byte, 1500)
	due := time.Now().UnixNano()
	var dgs [][]byte
	for i := uint64(0); i < 8; i++ {
		dgs = append(dgs, append([]byte(nil), fillDatagram(buf, ph, i, &seq, due)...))
	}
	s.receive(dgs[0], due+5000)
	s.receive(dgs[2], due+5000)
	if ph.delays[0] != 5 {
		t.Errorf("one-way delay %g µs, want 5", ph.delays[0])
	}
	// A datagram of a class arriving behind a later one of that class.
	c := p.class[0]
	var later int
	for i := 3; i < 8; i++ {
		if p.class[i] == c {
			later = i
			break
		}
	}
	if later > 0 {
		s.receive(dgs[later], due)
		s.receive(dgs[0], due)
		if ph.fifo != 1 {
			t.Errorf("fifo violations %d, want 1", ph.fifo)
		}
	}
	truncated := dgs[1][:dgMin]
	s.receive(truncated, due)
	if ph.bad != 1 {
		t.Errorf("off-plan datagrams %d, want 1", ph.bad)
	}
	stray := append([]byte(nil), dgs[1]...)
	binary.BigEndian.PutUint64(stray[18:], 12345)
	s.receive(stray, due)
	s.receive([]byte("short"), due)
	if s.stray != 2 {
		t.Errorf("stray datagrams %d, want 2", s.stray)
	}
}

func TestSpecValidation(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	bad := []func(*benchSpec){
		func(s *benchSpec) { s.EndToEnd[0].Name = "bad name" },
		func(s *benchSpec) { s.EndToEnd[1].Name = s.EndToEnd[2].Name },
		func(s *benchSpec) { s.PerLayer[0].Name = "_leading" },
		func(s *benchSpec) { s.PerLayer[0].Name = strings.Repeat("x", 65) },
		func(s *benchSpec) { s.PerLayer[0].Unit = "µs" },
		func(s *benchSpec) { s.PerLayer[0].Better = "more" },
		func(s *benchSpec) { b := 0.3; s.EndToEnd[1].Bound = &b },
		func(s *benchSpec) { s.EndToEnd[1].Bound = nil },
		func(s *benchSpec) { b := 0.1; s.PerLayer[0].Bound = &b },
		func(s *benchSpec) { s.EndToEnd = s.EndToEnd[1:] }, // setup_s first
		func(s *benchSpec) { s.Workloads[1].Name = s.Workloads[0].Name },
		func(s *benchSpec) { s.RunSeconds = 61 },
	}
	for i, mutate := range bad {
		s, _ := loadSpec("../" + specFile)
		if s.EndToEnd[0].Name != "setup_s" {
			t.Fatal("tests assume setup_s is the first end-to-end metric")
		}
		mutate(s)
		if s.validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}

	got := map[string]float64{}
	for _, m := range spec.EndToEnd {
		got[m.Name] = 1
	}
	if _, err := spec.selectMetrics(false, got); err != nil {
		t.Errorf("complete end-to-end set rejected: %v", err)
	}
	got["sink.lat_p99_us"] = 1 // declared per-layer: measured, not printed
	if m, err := spec.selectMetrics(false, got); err != nil || len(m) != len(spec.EndToEnd) {
		t.Errorf("per-layer extra: %v, %d metrics", err, len(m))
	}
	got["typo_metric"] = 1
	if _, err := spec.selectMetrics(false, got); err == nil || !strings.Contains(err.Error(), "undeclared typo_metric") {
		t.Errorf("undeclared metric: %v", err)
	}
	delete(got, "typo_metric")
	got["setup_s"] = math.NaN()
	if _, err := spec.selectMetrics(false, got); err == nil {
		t.Error("NaN accepted")
	}
	delete(got, "setup_s")
	if _, err := spec.selectMetrics(false, got); err == nil || !strings.Contains(err.Error(), "missing setup_s") {
		t.Errorf("missing metric: %v", err)
	}
}

func TestCompareRefusesUnlikeHosts(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	h := hostInfo{CPUModel: "x", NProc: 2, GOMAXPROCS: 2, SUTGOMAXPROCS: 2}
	rec := func(host hostInfo, v float64) resultRecord {
		m := map[string]float64{}
		for _, s := range spec.EndToEnd {
			m[s.Name] = v
		}
		return resultRecord{Workload: "sim-link", Seconds: 10, Host: host, Result: &outcome{Metrics: m}}
	}
	other := h
	other.NProc = 1
	if d := h.differences(other); len(d) != 1 || !strings.HasPrefix(d[0], "nproc") {
		t.Fatalf("differences %v", d)
	}
	if got := compareRecords(spec, []resultRecord{rec(h, 1)}, []resultRecord{rec(other, 1)}); got != 2 {
		t.Errorf("unlike hosts compared, status %d", got)
	}
	if got := compareRecords(spec, []resultRecord{rec(h, 1)}, []resultRecord{rec(h, 1)}); got != 0 {
		t.Errorf("identical results, status %d", got)
	}
	if got := compareRecords(spec, []resultRecord{rec(h, 1)}, []resultRecord{rec(h, 2)}); got != 3 {
		t.Errorf("doubled set-up time and latency not flagged, status %d", got)
	}
}

func TestTracedLinkEqualsSimulateLink(t *testing.T) {
	cfg := linkConfig(5, 2e6)
	want, err := pdds.SimulateLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, tl, err := runTracedLink(cfg, newTracer(linkSpanNames...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("traced pipeline report differs:\n got %+v\nwant %+v", got, want)
	}
	if tl.sampledSteps == 0 || tl.sched.enqueues != tl.arrivals || tl.observes != tl.link.Departed() {
		t.Fatalf("counters: %d sampled events, %d enqueues, %d arrivals, %d observes, %d departures",
			tl.sampledSteps, tl.sched.enqueues, tl.arrivals, tl.observes, tl.link.Departed())
	}
}

// TestLayersReconcile checks that the sampled self times of the sim-link
// layers add up to the untraced time per packet within reconcileTolerance.
// Host stalls only ever add time, so each side keeps its fastest of three
// runs.
func TestLayersReconcile(t *testing.T) {
	cfg := linkConfig(6, 5e6)
	untraced, traced := math.Inf(1), math.Inf(1)
	var best linkLayers
	var pkts uint64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := pdds.SimulateLink(cfg); err != nil {
			t.Fatal(err)
		}
		untraced = math.Min(untraced, float64(time.Since(t0).Nanoseconds()))
		_, tl, err := runTracedLink(cfg, newTracer(linkSpanNames...))
		if err != nil {
			t.Fatal(err)
		}
		pkts = tl.link.Departed()
		if l := tl.layers(); l.sum(pkts) < traced {
			traced, best = l.sum(pkts), l
		}
	}
	ratio := traced / (untraced / float64(pkts))
	t.Logf("layers sum to %.1f ns/pkt, untraced %.1f ns/pkt (ratio %.3f): sim %.1f traffic %.1f link %.1f core %.1f stats %.1f",
		traced, untraced/float64(pkts), ratio, best.sim, best.traffic, best.link, best.core, best.stats)
	if !within(ratio, reconcileTolerance) {
		t.Fatalf("layer self times / untraced time = %.3f, outside ±%.0f%%", ratio, 100*reconcileTolerance)
	}
}

func TestPathConfigMatchesSimulatePath(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Study B runs")
	}
	want, err := pdds.SimulatePath(pdds.PathConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := network.Run(pathConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := pathView(res); !reflect.DeepEqual(want, got) {
		t.Fatalf("network.Run with pathConfig %+v, SimulatePath %+v", got, want)
	}
}

func TestDigestsCommitted(t *testing.T) {
	for _, w := range []string{"sim-link", "sim-path"} {
		if _, ok := committedDigest(w, 1); !ok {
			t.Errorf("no committed digest for %s seed 1", w)
		}
	}
	d, err := firstDigest("sim-link", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := committedDigest("sim-link", 1); d != want {
		t.Errorf("sim-link seed 1 digest %s, committed %s", d, want)
	}
}

package main

import (
	"fmt"
	"time"

	"pdds"
	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/network"
)

// sim-path is Study B with SimulatePath's defaults: 4 WTP hops at ρ=0.95,
// 8 Pareto cross-traffic sources per hop, 100 one-second experiments of
// F=10-packet, 50 kb/s user flows after a 100 s warm-up.

// pathConfig is network.Config as SimulatePath fills it for a zero
// PathConfig, the seed aside. SimulatePath adds nothing per packet and
// offers no departure hook, so the untraced runs call network.Run with
// this config to count departures through its OnHopLink seam;
// simPathTraced and the tests check that the two agree.
func pathConfig(seed uint64) network.Config {
	return network.Config{
		Hops:        4,
		Rho:         0.95,
		SDP:         paperSDP,
		Scheduler:   core.KindWTP,
		FlowPackets: 10,
		FlowKbps:    50,
		Experiments: 100,
		WarmupSec:   100,
		Seed:        seed,
	}
}

// pathView is the part of a Study B result SimulatePath reports.
func pathView(r *network.Result) *pdds.PathReport {
	return &pdds.PathReport{
		RD:                      r.RD,
		Inconsistent:            r.Inconsistent,
		InconsistentExperiments: r.InconsistentExperiments,
		MeanE2E:                 r.MeanE2E,
		Utilization:             r.Utilization,
	}
}

// simPathRun is sim-path with tracing off: whole Study B runs, each
// timed from the call to its first departure (set-up) and per block of
// departures over every hop.
func simPathRun(req *simRequest) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	cpu0, _ := selfUsage()
	var setups, blocks, rates []float64
	var pkts uint64
	var last time.Duration
	for k := 0; k < 2 || time.Since(start)+last/2 <= req.Budget; k++ {
		cfg := pathConfig(simSeed(req.Seed, k))
		bc := newBlockClock()
		cfg.OnHopLink = func(_ int, l *link.Link) {
			next := l.OnDepart
			l.OnDepart = func(p *core.Packet) {
				bc.observe(p)
				next(p)
			}
		}
		res, err := network.Run(cfg)
		last = time.Since(bc.start)
		o.Attempted++
		if err != nil {
			return nil, fmt.Errorf("network.Run: %w", err)
		}
		pkts += uint64(bc.n)
		rates = append(rates, float64(bc.n)/last.Seconds())
		setups = append(setups, bc.first.Seconds())
		blocks = append(blocks, bc.lat...)
		if k == 0 {
			rep := pathView(res)
			checkDigest(o, "sim-path", req.Seed, digest(rep))
			checkPathInvariants(o, rep)
		}
	}
	cpu1, rssKB := selfUsage()
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["peak_rss_mb"] = float64(rssKB) / 1024
	o.Metrics["pkts_per_s"] = median(rates)
	o.Metrics["cpu_us_per_pkt"] = float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / float64(pkts)
	o.Metrics["lat_p50_us"] = median(blocks)
	o.note("%d Study B runs; departures counted over all hops", len(rates))
	return o, nil
}

// checkPathInvariants checks the paper's Table 1 result for every seed:
// no inconsistent class ordering and R_D within 10% of the ideal 2.
func checkPathInvariants(o *outcome, rep *pdds.PathReport) {
	o.check("zero-inconsistencies", rep.Inconsistent == 0, "%d inconsistent percentile comparisons", rep.Inconsistent)
	o.check("rd", rep.RD > 1.8 && rep.RD < 2.2, "R_D %.4f, ideal 2 ± 10%%", rep.RD)
}

// simPathTraced runs SimulatePath once untraced and network.Run once with
// every hop's departure handler wrapped, at the same seed. Sampled packets
// (one in traceEvery, by ID, so a packet is traced at every hop it
// crosses) get a span per hop departure. The results must agree.
func simPathTraced(req *simRequest) (*outcome, error) {
	o := newOutcome()
	seed := simSeed(req.Seed, 0)
	m0 := readMem()
	t0 := time.Now()
	want, err := pdds.SimulatePath(pdds.PathConfig{Seed: seed})
	untraced := time.Since(t0)
	m1 := readMem()
	o.Attempted++
	if err != nil {
		return nil, fmt.Errorf("SimulatePath: %w", err)
	}
	checkDigest(o, "sim-path", req.Seed, digest(want))

	tr := newTracer("network.hop_depart")
	var departs, firstHop uint64
	cfg := pathConfig(seed)
	cfg.OnHopLink = func(_ int, l *link.Link) {
		next := l.OnDepart
		l.OnDepart = func(p *core.Packet) {
			departs++
			if p.Hops == 1 {
				firstHop++
			}
			if !sampledID(p.ID) {
				next(p)
				return
			}
			i := tr.begin(0, p.ID)
			next(p)
			tr.end(i)
		}
	}
	t1 := time.Now()
	res, err := network.Run(cfg)
	traced := time.Since(t1)
	o.Attempted++
	if err != nil {
		return nil, fmt.Errorf("network.Run: %w", err)
	}
	got := pathView(res)
	o.check("traced-equals-untraced", digest(got) == digest(want), "traced run %s, SimulatePath %s", digest(got), digest(want))

	hop := tr.times()[0]
	hopNs := hop.total / float64(max(hop.spans, 1))
	hopTotal := hopNs * float64(departs)
	var retained int
	for _, exp := range res.Flows {
		for _, fs := range exp {
			retained += cap(fs.Delays.Values())
		}
	}
	// Every packet is emitted by one event and leaves each hop by one;
	// p.Hops==1 at a departure marks a packet's first hop.
	o.Metrics["sim.events_per_pkt"] = float64(departs+firstHop) / float64(departs)
	// Without a hook into the engine, its time is the traced run's wall
	// time outside the hop departure handlers.
	o.Metrics["sim.self_ns_per_pkt"] = (float64(traced.Nanoseconds()) - hopTotal) / float64(departs)
	o.Metrics["network.hop_depart_ns"] = hopNs
	o.Metrics["network.hop_pkts"] = float64(departs)
	o.Metrics["link.util"] = res.Utilization
	o.Metrics["stats.retained_mb"] = float64(retained) * 8 / 1e6
	o.Metrics["trace.reconcile_ratio"] = float64(traced.Nanoseconds()) / float64(untraced.Nanoseconds())
	o.Metrics["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	o.Metrics["trace.spans"] = float64(len(tr.spans))
	// network.Run builds its schedulers, sources and statistics itself,
	// so their time is inside network.hop_depart and sim.self here.
	zeroMetrics(o, "traffic.draw_ns_per_pkt", "core.enqueue_ns", "core.dequeue_ns", "core.backlog_mean",
		"link.arrive_self_ns", "stats.observe_ns_per_pkt", "stats.quantile_s")
	zeroMetrics(o, fwdLayerNames...)
	goMetrics(o, m0, m1, departs)
	if err := tr.write(req.SpanFile); err != nil {
		return nil, err
	}
	o.note("spans written to %s", req.SpanFile)
	return o, nil
}

// sampledID picks one packet in traceEvery by a hash of its ID.
func sampledID(id uint64) bool { return (id*0x9E3779B97F4A7C15)>>32%traceEvery == 0 }

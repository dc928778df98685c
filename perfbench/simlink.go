package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"pdds"
	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/traffic"
)

// sim-link is Study A, the paper's headline experiment: WTP with SDPs
// 1,2,4,8 at ρ=0.95, classes loaded 40/30/20/10, Pareto α=1.9
// interarrivals and the trimodal sizes, through pdds.SimulateLink.
const (
	// linkHorizon is the facade runs' horizon: about 1.7M departures,
	// 1.1 s on a 2-CPU Xeon. The facade keeps every delay for exact
	// quantiles, so memory grows with it.
	linkHorizon = 2e7
	// linkProbeHorizon is the horizon of the link.Run runs that measure
	// set-up and block latency.
	linkProbeHorizon = 2e6
	linkWarmup       = 5e4
	// The traced pipeline times one burst of traceBurst consecutive events
	// in traceEvery with every wrapped call, and the next burst with each
	// event timed only as a whole. In a lone sampled event the tracing
	// code runs cold, mispredicted and out of cache, so bursts keep it
	// warm, and the plain bursts measure what timing the calls costs.
	traceEvery = 128
	traceBurst = 16
)

var paperSDP = []float64{1, 2, 4, 8}

// linkConfig spells out every SimulateLink field so that no facade
// default applies and the traced pipeline below can mirror it exactly.
func linkConfig(seed uint64, horizon float64) pdds.LinkConfig {
	return pdds.LinkConfig{
		Scheduler:      pdds.WTP,
		SDP:            paperSDP,
		Utilization:    0.95,
		ClassFractions: []float64{0.40, 0.30, 0.20, 0.10},
		Alpha:          1.9,
		Horizon:        horizon,
		Warmup:         linkWarmup,
		Seed:           seed,
	}
}

func paperLoad(cfg pdds.LinkConfig) traffic.LoadSpec {
	return traffic.LoadSpec{Rho: cfg.Utilization, Fractions: cfg.ClassFractions, Sizes: traffic.PaperSizes(), Alpha: cfg.Alpha}
}

// simLinkRun is sim-link with tracing off. A fifth of the budget runs
// link.Run — the engine under SimulateLink — with a departure observer
// that times set-up and blocks of departures; the rest calls SimulateLink
// at the long horizon for throughput, CPU and memory.
func simLinkRun(req *simRequest) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	var setups, blocks []float64
	for k := 0; k < 2 || time.Since(start) < req.Budget/5; k++ {
		cfg := linkConfig(simSeed(req.Seed, 32+k), linkProbeHorizon)
		bc := newBlockClock()
		_, err := link.Run(link.RunConfig{
			Kind: core.KindWTP, SDP: cfg.SDP, Load: paperLoad(cfg),
			Horizon: cfg.Horizon, Warmup: cfg.Warmup, Seed: cfg.Seed,
			Observers: []func(*core.Packet){bc.observe},
		})
		o.Attempted++
		if err != nil {
			return nil, fmt.Errorf("link.Run: %w", err)
		}
		setups = append(setups, bc.first.Seconds())
		blocks = append(blocks, bc.lat...)
	}

	cpu0, _ := selfUsage()
	var rates []float64
	var pkts uint64
	var last time.Duration
	for k := 0; k < 3 || time.Since(start)+last/2 <= req.Budget; k++ {
		cfg := linkConfig(simSeed(req.Seed, k), linkHorizon)
		t0 := time.Now()
		rep, err := pdds.SimulateLink(cfg)
		last = time.Since(t0)
		o.Attempted++
		if err != nil {
			return nil, fmt.Errorf("SimulateLink: %w", err)
		}
		n := linkPackets(rep)
		pkts += n
		rates = append(rates, float64(n)/last.Seconds())
		if k == 0 {
			checkDigest(o, "sim-link", req.Seed, digest(rep))
			checkLinkInvariants(o, rep)
		}
	}
	cpu1, rssKB := selfUsage()

	o.Metrics["setup_s"] = median(setups)
	o.Metrics["peak_rss_mb"] = float64(rssKB) / 1024
	o.Metrics["pkts_per_s"] = median(rates)
	o.Metrics["cpu_us_per_pkt"] = float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / float64(pkts)
	o.Metrics["lat_p50_us"] = median(blocks)
	o.note("SimulateLink runs at horizon %g: %.4g departures/s; %d link.Run runs at %g", float64(linkHorizon), rates, len(setups), float64(linkProbeHorizon))
	return o, nil
}

func linkPackets(rep *pdds.LinkReport) uint64 {
	var n uint64
	for _, c := range rep.Classes {
		n += c.Packets
	}
	return n
}

// checkLinkInvariants checks what must hold for every seed: no loss, the
// offered utilization realized, and adjacent-class delay ratios within
// 20% of the SDP ratio 2 (WTP at ρ=0.95 reaches 1.84–1.95 here).
func checkLinkInvariants(o *outcome, rep *pdds.LinkReport) {
	ok := len(rep.DelayRatios) == len(paperSDP)-1
	for _, r := range rep.DelayRatios {
		ok = ok && r > 1.6 && r < 2.4
	}
	o.check("delay-ratios", ok, "adjacent-class ratios %.3f, target 2 ± 20%%", rep.DelayRatios)
	o.check("no-loss", rep.Dropped == 0, "%d dropped", rep.Dropped)
	o.check("utilization", rep.Utilization > 0.9 && rep.Utilization < 1, "realized utilization %.4f", rep.Utilization)
}

// Span names of the sim-link trace.
const (
	spanStep uint8 = iota
	spanSize
	spanInter
	spanArrive
	spanEnqueue
	spanDequeue
	spanObserve
)

var linkSpanNames = []string{"sim.step", "traffic.size", "traffic.inter", "link.arrive", "core.enqueue", "core.dequeue", "stats.observe"}

// tracedLink is SimulateLink rebuilt from the public constructors it uses
// — sim.NewEngine, core.New, link.New, LoadSpec.Build, stats.ClassDelays
// and stats.Sample — with each layer wrapped so that sampled calls are
// timed and every call is counted. It must return SimulateLink's report
// exactly; simLinkTraced checks that it does.
type tracedLink struct {
	tr     *tracer
	engine *sim.Engine
	link   *link.Link
	sched  *tracedSched
	// arrivals and observes count link.Arrive and departure-observer
	// calls; sampledSteps the engine events that were timed.
	arrivals, observes, sampledSteps uint64
	samples                          []stats.Sample
	quantileTime                     time.Duration
}

func runTracedLink(cfg pdds.LinkConfig, tr *tracer) (*pdds.LinkReport, *tracedLink, error) {
	t := &tracedLink{tr: tr, engine: sim.NewEngine()}
	inner, err := core.New(core.Kind(cfg.Scheduler), cfg.SDP, link.PaperLinkRate)
	if err != nil {
		return nil, nil, err
	}
	t.sched = &tracedSched{Scheduler: inner, tr: tr}
	t.link = link.New(t.engine, link.PaperLinkRate, t.sched)
	pool := core.NewPacketPool()
	t.link.Pool = pool

	n := len(cfg.SDP)
	delays := stats.NewClassDelays(n)
	t.samples = make([]stats.Sample, n)
	observe := func(p *core.Packet) {
		if p.Departure >= cfg.Warmup {
			delays.Observe(p)
			t.samples[p.Class].Add(p.Wait())
		}
	}
	t.link.OnDepart = func(p *core.Packet) {
		t.observes++
		if !tr.on {
			observe(p)
			return
		}
		i := tr.begin(spanObserve, p.ID)
		observe(p)
		tr.end(i)
	}

	sources, err := paperLoad(cfg).Build(link.PaperLinkRate, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range sources {
		s.Pool = pool
		s.Inter = tracedInter{s.Inter, t}
		s.Sizes = tracedSizes{s.Sizes, t}
	}
	traffic.StartAll(t.engine, sources, func(p *core.Packet) {
		t.arrivals++
		if !tr.on {
			t.link.Arrive(p)
			return
		}
		i := tr.begin(spanArrive, p.ID)
		t.link.Arrive(p)
		tr.end(i)
	})

	// Step the engine by hand to time sampled events. The engine cannot
	// be peeked, so stepping stops 0.1% short of the horizon and RunUntil
	// finishes exactly as SimulateLink's does; an event gap that long
	// would need every source silent at once, and the equality check
	// with SimulateLink would catch it.
	stepUntil := cfg.Horizon - cfg.Horizon/1000
	var plainTicks int64
	var plainSteps int
	for steps := uint64(0); t.engine.Now() < stepUntil; steps++ {
		burst := steps / traceBurst
		if burst%traceEvery > 1 {
			if !t.engine.Step() {
				break
			}
			continue
		}
		var more bool
		if burst%traceEvery == 1 {
			// A plain burst: each event timed as a whole, no wrapper
			// traced, for calibrate below.
			t0 := ticks()
			more = t.engine.Step()
			plainTicks += ticks() - t0
			plainSteps++
		} else {
			t.sched.sampleBacklog()
			tr.on = true
			root := tr.begin(spanStep, 0)
			more = t.engine.Step()
			tr.end(root)
			tr.on = false
			t.sampledSteps++
		}
		if !more {
			break
		}
	}
	tr.calibrateChildren(spanStep, tr.ns(plainTicks)/float64(max(plainSteps, 1)))
	t.engine.RunUntil(cfg.Horizon)

	rep := &pdds.LinkReport{
		Scheduler:   t.sched.Name(),
		Utilization: t.link.Utilization(),
		DelayRatios: delays.SuccessiveRatios(),
		Dropped:     t.link.Dropped(),
	}
	q0 := time.Now()
	for c := 0; c < n; c++ {
		w := delays.Class(c)
		cs := pdds.ClassStat{
			Packets:         w.Count(),
			MeanDelay:       w.Mean(),
			StdDelay:        w.Std(),
			MeanDelayPUnits: w.Mean() / link.PUnit,
		}
		if t.samples[c].Len() > 0 {
			cs.P50Delay = t.samples[c].Quantile(0.50)
			cs.P95Delay = t.samples[c].Quantile(0.95)
		}
		rep.Classes = append(rep.Classes, cs)
	}
	t.quantileTime = time.Since(q0)
	return rep, t, nil
}

// tracedSched times sampled Enqueue and Dequeue calls and averages the
// backlog over sampled events.
type tracedSched struct {
	core.Scheduler
	tr                 *tracer
	enqueues, dequeues uint64
	backlogSum         float64
	backlogN           int
}

func (s *tracedSched) Enqueue(p *core.Packet, now float64) {
	s.enqueues++
	if !s.tr.on {
		s.Scheduler.Enqueue(p, now)
		return
	}
	i := s.tr.begin(spanEnqueue, p.ID)
	s.Scheduler.Enqueue(p, now)
	s.tr.end(i)
}

// sampleBacklog adds the current backlog to the average; it runs outside
// any timed span.
func (s *tracedSched) sampleBacklog() {
	for c := 0; c < s.NumClasses(); c++ {
		s.backlogSum += float64(s.Len(c))
	}
	s.backlogN++
}

func (s *tracedSched) Dequeue(now float64) *core.Packet {
	s.dequeues++
	if !s.tr.on {
		return s.Scheduler.Dequeue(now)
	}
	i := s.tr.begin(spanDequeue, 0)
	p := s.Scheduler.Dequeue(now)
	s.tr.end(i)
	if p != nil {
		s.tr.setID(i, p.ID)
	}
	return p
}

type tracedInter struct {
	traffic.Interarrival
	t *tracedLink
}

func (d tracedInter) Next(rng *rand.Rand) float64 {
	if !d.t.tr.on {
		return d.Interarrival.Next(rng)
	}
	i := d.t.tr.begin(spanInter, 0)
	v := d.Interarrival.Next(rng)
	d.t.tr.end(i)
	return v
}

type tracedSizes struct {
	traffic.SizeDist
	t *tracedLink
}

func (d tracedSizes) Next(rng *rand.Rand) int64 {
	if !d.t.tr.on {
		return d.SizeDist.Next(rng)
	}
	i := d.t.tr.begin(spanSize, 0)
	v := d.SizeDist.Next(rng)
	d.t.tr.end(i)
	return v
}

// linkLayers is the per-layer breakdown of one traced sim-link run, in ns
// per departed packet unless named otherwise.
type linkLayers struct {
	eventsPerPkt                       float64
	sim, traffic, link, core, stats    float64
	enqueueNs, dequeueNs, arriveSelfNs float64
	backlogMean, quantileS, retainedMB float64
	spans                              int
}

// sum is the per-packet time the layers account for, set-up aside.
func (l linkLayers) sum(pkts uint64) float64 {
	return l.sim + l.traffic + l.link + l.core + l.stats + l.quantileS*1e9/float64(pkts)
}

func (t *tracedLink) layers() linkLayers {
	times := t.tr.times()
	pkts := float64(t.link.Departed())
	// Sampled events stand for all events: scale their time by the
	// ratio of events run to events timed.
	scale := float64(t.engine.Executed()) / float64(max(t.sampledSteps, 1))
	perPkt := func(names ...uint8) float64 {
		var s float64
		for _, n := range names {
			s += times[n].self
		}
		return s * scale / pkts
	}
	perCall := func(n uint8) float64 { return times[n].self / float64(max(times[n].spans, 1)) }
	var retained int
	for i := range t.samples {
		retained += cap(t.samples[i].Values())
	}
	return linkLayers{
		eventsPerPkt: float64(t.engine.Executed()) / pkts,
		sim:          perPkt(spanStep),
		traffic:      perPkt(spanSize, spanInter),
		link:         perPkt(spanArrive),
		core:         perPkt(spanEnqueue, spanDequeue),
		stats:        perPkt(spanObserve),
		enqueueNs:    perCall(spanEnqueue),
		dequeueNs:    perCall(spanDequeue),
		arriveSelfNs: perCall(spanArrive),
		backlogMean:  t.sched.backlogSum / float64(max(t.sched.backlogN, 1)),
		quantileS:    t.quantileTime.Seconds(),
		retainedMB:   float64(retained) * 8 / 1e6,
		spans:        len(t.tr.spans),
	}
}

// simLinkTraced runs SimulateLink, the traced pipeline and SimulateLink
// again at the same seed and horizon. The reports must be equal; the
// difference in wall time is the tracing overhead, and the layers' self
// times must add up to the untraced time per packet.
func simLinkTraced(req *simRequest) (*outcome, error) {
	o := newOutcome()
	cfg := linkConfig(simSeed(req.Seed, 0), linkHorizon)
	// Untraced, traced, untraced: the untraced time is the mean of the
	// runs either side, so heap growth and cache warm-up do not land on
	// one side only.
	untracedRun := func() (*pdds.LinkReport, time.Duration, memSnap, memSnap, error) {
		m0 := readMem()
		t0 := time.Now()
		rep, err := pdds.SimulateLink(cfg)
		d := time.Since(t0)
		o.Attempted++
		return rep, d, m0, readMem(), err
	}
	want, u1, m0, m1, err := untracedRun()
	if err != nil {
		return nil, fmt.Errorf("SimulateLink: %w", err)
	}
	checkDigest(o, "sim-link", req.Seed, digest(want))

	tr := newTracer(linkSpanNames...)
	t1 := time.Now()
	got, tl, err := runTracedLink(cfg, tr)
	traced := time.Since(t1)
	o.Attempted++
	if err != nil {
		return nil, err
	}
	o.check("traced-equals-untraced", reflect.DeepEqual(want, got), "traced pipeline report %s, SimulateLink %s", digest(got), digest(want))
	again, u2, _, _, err := untracedRun()
	if err != nil {
		return nil, fmt.Errorf("SimulateLink: %w", err)
	}
	o.check("untraced-repeats", reflect.DeepEqual(want, again), "second SimulateLink report %s", digest(again))
	untraced := (u1 + u2) / 2

	pkts := tl.link.Departed()
	l := tl.layers()
	untracedNs := float64(untraced.Nanoseconds()) / float64(pkts)
	o.Metrics["sim.events_per_pkt"] = l.eventsPerPkt
	o.Metrics["sim.self_ns_per_pkt"] = l.sim
	o.Metrics["traffic.draw_ns_per_pkt"] = l.traffic
	o.Metrics["core.enqueue_ns"] = l.enqueueNs
	o.Metrics["core.dequeue_ns"] = l.dequeueNs
	o.Metrics["core.backlog_mean"] = l.backlogMean
	o.Metrics["link.arrive_self_ns"] = l.arriveSelfNs
	o.Metrics["link.util"] = got.Utilization
	o.Metrics["stats.observe_ns_per_pkt"] = l.stats
	o.Metrics["stats.quantile_s"] = l.quantileS
	o.Metrics["stats.retained_mb"] = l.retainedMB
	o.Metrics["trace.reconcile_ratio"] = l.sum(pkts) / untracedNs
	o.Metrics["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	o.Metrics["trace.spans"] = float64(l.spans)
	zeroMetrics(o, "network.hop_depart_ns", "network.hop_pkts")
	zeroMetrics(o, fwdLayerNames...)
	goMetrics(o, m0, m1, pkts)
	// A stall of the shared host inside a timed burst inflates the sum,
	// so a miss is reported, not failed; TestLayersReconcile holds the
	// tolerance.
	verdict := "reconcile"
	if !within(l.sum(pkts)/untracedNs, reconcileTolerance) {
		verdict = "DO NOT reconcile"
	}
	o.note("layer self times sum to %.1f ns/pkt against %.1f ns/pkt untraced: they %s within ±%.0f%%",
		l.sum(pkts), untracedNs, verdict, 100*reconcileTolerance)
	o.note("layer self ns/pkt: sim %.1f, traffic %.1f, link %.1f, core %.1f, stats %.1f; %d events timed",
		l.sim, l.traffic, l.link, l.core, l.stats, tl.sampledSteps)
	if err := tr.write(req.SpanFile); err != nil {
		return nil, err
	}
	o.note("spans written to %s", req.SpanFile)
	return o, nil
}

// reconcileTolerance bounds how far the sampled layer self times may sum
// from the untraced time per packet. Sampling, the clock-cost correction
// and the wrappers' own indirection each move the sum by a few percent.
const reconcileTolerance = 0.25

func within(ratio, tol float64) bool { return ratio > 1-tol && ratio < 1+tol }

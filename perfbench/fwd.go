package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// The forwarder workloads run pdds.StartForwarderWithConfig in the
// system-under-test process on loopback, WTP with SDPs 1,2,4,8 and one
// ingress shard, and drive it open loop from the benchmark's process.

const (
	setupTrials = 21
	// satBursts is the number of saturation bursts fwd-small reports the
	// median of.
	satBursts = 5
	// satOffered is the rate phase A offers: well above the 130-230k/s
	// the forwarder reaches on a 2-CPU host, within what the generator
	// can send.
	satOffered = 250000
	// smallSize is fwd-small's datagram size: at the smallest size the
	// per-datagram receive, syscall and send costs dominate.
	smallSize = 64
	// smallRate is fwd-small's phase B rate, well below the ~230k/s the
	// forwarder saturates at on a 2-CPU host, and low enough that a 10 ms
	// stall does not overflow the default 208 KiB ingress buffer.
	smallRate = 10000
	// unpacedBps puts fwd-small's egress pacer far above any offered rate.
	unpacedBps = 100e9
	// pddEgressPPS is fwd-pdd's paced egress rate in mean-size datagrams
	// per second; the forwarder holds 25k/s within 0.3% at 500 B and
	// falls 2-5% short at 50k/s. It is offered 1.5 times as much.
	pddEgressPPS = 25000
	pddOverload  = 1.5
	// pddEgressTolerance bounds the delivered egress rate around the
	// configured one; pddRatioTolerance bounds adjacent-class mean
	// delay ratios around the SDP ratio 2.
	pddEgressTolerance = 0.02
	pddRatioTolerance  = 0.25
	// calibrationMargin: the generator must reach the sink directly this
	// much faster than through the forwarder, or the benchmark would be
	// measuring its own generator.
	calibrationMargin = 1.2
)

var (
	classSplit     = []float64{0.40, 0.30, 0.20, 0.10}
	trimodalSizes  = []int{40, 550, 1500}
	trimodalProbs  = []float64{0.4, 0.5, 0.1}
	fwdSpanNames   = []string{"dgram", "gen.send", "fwd.transit", "sink.recv"}
	fwdCallTimeout = 30 * time.Second
)

// fwdRig is the benchmark side of a forwarder workload: the sink, the
// system-under-test process and the tallies across forwarder instances.
type fwdRig struct {
	rc   *runCtx
	o    *outcome
	sut  *sutProc
	sink *sink
	tags uint64
	tr   *tracer
	// instances counts forwarders started; broken describes any whose
	// counters failed the checks after Close. unaccounted sums the
	// datagrams missing from a forwarder's conservation equation, and
	// egressLost those it counted as forwarded that the sink never saw.
	instances   int
	broken      []string
	unaccounted int64
	egressLost  int64
}

func newFwdRig(rc *runCtx) (*fwdRig, error) {
	s, err := newSink()
	if err != nil {
		return nil, err
	}
	p, err := startSUT()
	if err != nil {
		s.stop()
		return nil, err
	}
	r := &fwdRig{rc: rc, o: newOutcome(), sut: p, sink: s}
	if rc.trace {
		r.tr = newTracer(fwdSpanNames...)
	}
	return r, nil
}

// finish stops the system-under-test process and returns its peak RSS in
// MB; cleanup releases everything on any path.
func (r *fwdRig) finish() (float64, error) {
	ru, err := r.sut.finish()
	if err != nil {
		return 0, err
	}
	r.rc.sutGOMAXPROCS = r.sut.gomaxprocs
	return float64(ru.Maxrss) / 1024, nil
}

func (r *fwdRig) cleanup() {
	r.sut.cleanup()
	r.sink.stop()
}

func (r *fwdRig) newPhase(p *plan, keepDelays bool, windowFrom time.Time) *phase {
	r.tags++
	ph := newPhase(r.rc.seed<<20|r.tags, p, keepDelays)
	if !windowFrom.IsZero() {
		ph.windowFrom = windowFrom.UnixNano()
	}
	r.sink.add(ph)
	return ph
}

func (r *fwdRig) startFwd(rateBps float64, drain time.Duration) (*fwdReply, error) {
	rep, err := r.sut.call(sutRequest{Op: "fwd-start", Fwd: &fwdStartRequest{
		Forward: r.sink.addr(), RateBps: rateBps, Drain: drain, SampleQueue: r.rc.trace,
	}}, fwdCallTimeout)
	if err != nil {
		return nil, err
	}
	r.instances++
	return rep.Fwd, nil
}

func (r *fwdRig) snap() (*fwdReply, error) {
	rep, err := r.sut.call(sutRequest{Op: "fwd-snap"}, fwdCallTimeout)
	if err != nil {
		return nil, err
	}
	return rep.Fwd, nil
}

// quiesce waits until the forwarder has read every datagram still in its
// ingress socket (Received stops moving) and, with empty, its queue is
// empty and the sink holds all it forwarded. Closing earlier would drop
// datagrams still in the kernel buffer.
func (r *fwdRig) quiesce(empty bool, phs ...*phase) error {
	deadline := time.Now().Add(5 * time.Second)
	var prev uint64
	for stable := 0; stable < 3; {
		time.Sleep(5 * time.Millisecond)
		s, err := r.snap()
		if err != nil {
			return err
		}
		settled := s.Stats.Received == prev
		if empty {
			settled = settled && s.Stats.Queued == 0 && uint64(r.sink.counts(phs...)) == s.Stats.Forwarded
		}
		if settled {
			stable++
		} else {
			stable = 0
		}
		prev = s.Stats.Received
		if time.Now().After(deadline) {
			return fmt.Errorf("forwarder did not settle: %+v", s.Stats)
		}
	}
	return nil
}

// closeFwd closes the forwarder, waits for the sink to receive everything
// it forwarded, and checks its counters: Received = Forwarded + Dropped +
// BadHeader + BadClass with nothing queued, and the sink holding exactly
// Forwarded datagrams of this forwarder's phases.
func (r *fwdRig) closeFwd(phs ...*phase) (*fwdReply, error) {
	rep, err := r.sut.call(sutRequest{Op: "fwd-close"}, fwdCallTimeout)
	if err != nil {
		return nil, err
	}
	st := rep.Fwd.Stats
	deadline := time.Now().Add(2 * time.Second)
	got := r.sink.counts(phs...)
	for uint64(got) < st.Forwarded && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		got = r.sink.counts(phs...)
	}
	if gap := int64(st.Received) - int64(st.Forwarded+st.Dropped+st.BadHeader+st.BadClass); gap != 0 || st.Queued != 0 {
		r.unaccounted += max(gap, -gap)
		r.broken = append(r.broken, fmt.Sprintf("%+v", st))
	}
	if uint64(got) != st.Forwarded {
		r.egressLost += int64(st.Forwarded) - got
		r.broken = append(r.broken, fmt.Sprintf("sink received %d of %d forwarded", got, st.Forwarded))
	}
	return rep.Fwd, nil
}

// setup times setupTrials forwarder start-ups, each from the start call
// to the sink receiving the first datagram sent through it.
func (r *fwdRig) setup(rateBps float64, p *plan) error {
	var times []float64
	for i := 0; i < setupTrials; i++ {
		ph := r.newPhase(p, false, time.Time{})
		rep, err := r.startFwd(rateBps, time.Second)
		if err != nil {
			return err
		}
		gen, err := dialGen(rep.Addr)
		if err != nil {
			return err
		}
		var seq [nClass]uint64
		buf := make([]byte, 1500)
		deadline := time.Now().Add(2 * time.Second)
		for idx := uint64(0); ; idx++ {
			if err := gen.writeBatch([][]byte{fillDatagram(buf, ph, idx, &seq, time.Now().UnixNano())}); err != nil {
				gen.conn.Close()
				return err
			}
			select {
			case <-ph.firstSeen:
			case <-time.After(2 * time.Millisecond):
				if time.Now().Before(deadline) {
					continue
				}
				gen.conn.Close()
				return fmt.Errorf("set-up: nothing delivered within 2 s")
			}
			break
		}
		gen.conn.Close()
		times = append(times, float64(ph.first-rep.StartNs)/1e9)
		if _, err := r.closeFwd(ph); err != nil {
			return err
		}
	}
	r.o.Metrics["setup_s"] = median(times)
	return nil
}

// direct measures the generator straight into the sink, with no
// forwarder, in datagrams per second over the sink's busy period.
func (r *fwdRig) direct(p *plan, dur time.Duration) (float64, error) {
	ph := r.newPhase(p, false, time.Time{})
	gen, err := dialGen(r.sink.addr())
	if err != nil {
		return 0, err
	}
	defer gen.conn.Close()
	res, err := generate(gen, genPhase{ph: ph, dur: dur})
	if err != nil {
		return 0, err
	}
	// Let the sink drain its socket; losses here only lower the figure.
	for prev := int64(-1); ; {
		time.Sleep(20 * time.Millisecond)
		n := r.sink.counts(ph)
		if n == prev || n >= res.sent {
			break
		}
		prev = n
	}
	pps := busyRate(r.sink, ph)
	r.o.Metrics["gen.direct_pps"] = pps
	return pps, nil
}

// busyRate is a phase's delivered datagrams per second from its first to
// its last receipt at the sink.
func busyRate(s *sink, ph *phase) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph.total < 2 {
		return 0
	}
	return float64(ph.total-1) / (float64(ph.last-ph.first) / 1e9)
}

// fixedRun is what fixedRate measured.
type fixedRun struct {
	ph         *phase
	gen        *genResult
	start, end *fwdReply
}

// fixedRate is the measured phase both forwarder workloads share: a fresh
// forwarder offered rate datagrams per second open loop for dur. Latency
// and the egress window count from warm on; the forwarder drains for up to
// drain when closed. With pin, the forwarder process and the benchmark
// process run on different CPUs.
func (r *fwdRig) fixedRate(p *plan, rateBps, rate float64, dur, warm, drain time.Duration, pin bool) (*fixedRun, error) {
	var windowFrom time.Time
	if warm > 0 {
		windowFrom = time.Now().Add(warm)
	}
	// This is the last phase of both workloads, so the pins stay.
	if load, sut, ok := cpuPair(); ok && pin {
		if _, err := r.sut.call(sutRequest{Op: "pin", CPU: sut}, fwdCallTimeout); err != nil {
			return nil, err
		}
		if err := pinProcess(load); err != nil {
			return nil, err
		}
	}
	ph := r.newPhase(p, true, windowFrom)
	if r.tr != nil {
		r.sink.mu.Lock()
		ph.traced = map[uint64][2]int64{}
		r.sink.mu.Unlock()
	}
	start, err := r.startFwd(rateBps, drain)
	if err != nil {
		return nil, err
	}
	gen, err := dialGen(start.Addr)
	if err != nil {
		return nil, err
	}
	defer gen.conn.Close()
	g := genPhase{ph: ph, rate: rate, dur: dur}
	if r.tr != nil {
		g.traceFrom = warm + (dur-warm)/2
	}
	res, err := generate(gen, g)
	if err != nil {
		return nil, err
	}
	if err := r.quiesce(drain > 0, ph); err != nil {
		return nil, err
	}
	end, err := r.closeFwd(ph)
	if err != nil {
		return nil, err
	}
	r.o.Attempted += uint64(res.sent)
	run := &fixedRun{ph: ph, gen: res, start: start, end: end}
	r.fixedMetrics(run, rate)
	return run, nil
}

// fixedMetrics sets the metrics a fixed-rate phase measures.
func (r *fwdRig) fixedMetrics(run *fixedRun, rate float64) {
	o, ph, st := r.o, run.ph, run.end.Stats
	r.sink.mu.Lock()
	defer r.sink.mu.Unlock()
	all := make([]float64, len(ph.delays))
	var perClass [nClass][]float64
	for i, d := range ph.delays {
		all[i] = float64(d)
		perClass[ph.classes[i]] = append(perClass[ph.classes[i]], float64(d))
	}
	o.Metrics["lat_p50_us"] = median(all)
	p99, tails := windowedP99(all)
	o.Metrics["sink.lat_p99_us"] = p99
	o.check("latency-sample", !math.IsNaN(p99), "%d one-way delays support p%g; p99 per window %.4g µs",
		len(all), 100*tailPercentile(len(all)), tails)
	o.Metrics["cpu_us_per_pkt"] = float64((run.end.CPU - run.start.CPU).Nanoseconds()) / 1e3 / float64(max(st.Forwarded, 1))
	o.Metrics["sink.hi_delay_p99_ms"] = quantile(sortedCopy(perClass[nClass-1]), 0.99) / 1e3
	o.Metrics["sink.lo_delay_p99_ms"] = quantile(sortedCopy(perClass[0]), 0.99) / 1e3

	var path float64
	for c := 0; c < nClass; c++ {
		cs := run.end.Classes[c]
		o.Metrics[fmt.Sprintf("netio.c%d.sojourn_p50_us", c)] = cs.DelayP50 * 1e6
		o.Metrics[fmt.Sprintf("netio.c%d.sojourn_p99_us", c)] = cs.DelayP99 * 1e6
		share := float64(len(perClass[c])) / float64(max(len(all), 1))
		path += share * (quantile(sortedCopy(perClass[c]), 0.5) - cs.DelayP50*1e6)
	}
	o.Metrics["netio.path_p50_us"] = path
	o.Metrics["netio.queued_mean"] = run.end.QueuedMean
	o.Metrics["kernel.ingress_loss"] = float64(run.gen.sent) - float64(st.Received)
	goMetrics(o, run.start.Mem, run.end.Mem, st.Forwarded)

	late := make([]float64, len(run.gen.late))
	for i, l := range run.gen.late {
		late[i] = float64(l)
	}
	late = sortedCopy(late)
	o.Metrics["gen.late_p99_us"] = quantile(late, 0.99)
	o.Metrics["gen.late_max_ms"] = late[len(late)-1] / 1e3
	o.Metrics["gen.cpu_us_per_pkt"] = float64((run.gen.cpu[0] + run.gen.cpu[1]).Nanoseconds()) / 1e3 / float64(run.gen.sent)
	o.note("offered %.0f/s for %d datagrams; generator late p50 %.1f µs", rate, run.gen.sent, quantile(late, 0.5))
	if r.tr != nil {
		r.traceSpans(run, rate)
	}
}

// traceSpans turns the sampled datagrams of a traced phase into spans: a
// root from due time to the sink's processing, with the generator's send,
// the transit through kernel and forwarder, and the sink's receipt as
// children. Tracing overhead is the generator process's CPU per datagram
// in the traced half against the untraced half.
func (r *fwdRig) traceSpans(run *fixedRun, rate float64) {
	g := run.gen
	startWall := g.start.UnixNano()
	epoch := r.tr.epoch.UnixNano()
	for _, idx := range sortedIndices(g.sendNs) {
		due := startWall + int64(float64(idx)*float64(time.Second)/rate)
		sent := g.sendNs[idx]
		id := run.ph.tag<<24 ^ idx
		t, ok := run.ph.traced[idx]
		end := sent
		if ok {
			end = t[1]
		}
		root := r.tr.add(0, id, -1, due-epoch, end-epoch)
		r.tr.add(1, id, root, due-epoch, sent-epoch)
		if ok {
			r.tr.add(2, id, root, sent-epoch, t[0]-epoch)
			r.tr.add(3, id, root, t[0]-epoch, t[1]-epoch)
		}
	}
	perPkt := func(h int) float64 { return float64(g.cpu[h].Nanoseconds()) / float64(max(g.sentHalf[h], 1)) }
	r.o.Metrics["trace.overhead_pct"] = 100 * (perPkt(1) - perPkt(0)) / perPkt(0)
	r.o.Metrics["trace.spans"] = float64(len(r.tr.spans))
}

// finishChecks records the checks every forwarder workload makes and
// counts failures: misdelivered and stray datagrams, reordering within a
// class, conservation breaks and egress losses.
func (r *fwdRig) finishChecks(ceiling float64) {
	o := r.o
	r.sink.mu.Lock()
	var fifo, bad int64
	for _, ph := range r.sink.phases {
		fifo += ph.fifo
		bad += ph.bad
	}
	stray := r.sink.stray
	r.sink.mu.Unlock()
	o.check("conservation", len(r.broken) == 0, "%d forwarders closed, %d broken %v", r.instances, len(r.broken), r.broken)
	o.check("fifo-within-class", fifo == 0, "%d datagrams behind a later one of their class", fifo)
	o.check("no-misdelivery", bad+stray == 0, "%d datagrams off plan, %d unknown", bad, stray)
	direct := o.Metrics["gen.direct_pps"]
	o.check("generator-calibration", direct >= calibrationMargin*ceiling,
		"generator reaches the sink directly at %.0f/s, %.2f times the %.0f/s through the forwarder (need %.1f)",
		direct, direct/ceiling, ceiling, calibrationMargin)
	o.Metrics["kernel.egress_loss"] = float64(r.egressLost)
	o.Failed += uint64(fifo + bad + stray + r.unaccounted + max(r.egressLost, -r.egressLost))
	zeroMetrics(o, simLayerNames...)
}

// runFwdSmall: 64-byte datagrams through an unpaced forwarder. Phase A
// offers satOffered in satBursts bursts for the saturation rate; phase B
// offers smallRate for latency and CPU cost.
// The queues stay near empty, so the scheduler and pacer do little: this
// workload measures the per-datagram receive and send path.
func runFwdSmall(rc *runCtx) (*outcome, error) {
	r, err := newFwdRig(rc)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	p := newPlan(rc.seed, 1, classSplit, []int{smallSize}, nil)
	if err := r.setup(unpacedBps, p); err != nil {
		return nil, err
	}
	if _, err := r.direct(p, rc.budget*8/100); err != nil {
		return nil, err
	}

	start, err := r.startFwd(unpacedBps, time.Second)
	if err != nil {
		return nil, err
	}
	gen, err := dialGen(start.Addr)
	if err != nil {
		return nil, err
	}
	var bursts []*phase
	var rates []float64
	var sent int64
	for b := 0; b < satBursts; b++ {
		ph := r.newPhase(p, false, time.Time{})
		bursts = append(bursts, ph)
		res, err := generate(gen, genPhase{ph: ph, rate: satOffered, dur: rc.budget * 30 / 100 / satBursts})
		if err != nil {
			gen.conn.Close()
			return nil, err
		}
		sent += res.sent
		if err := r.quiesce(true, bursts...); err != nil {
			gen.conn.Close()
			return nil, err
		}
		rates = append(rates, busyRate(r.sink, ph))
	}
	gen.conn.Close()
	satEnd, err := r.closeFwd(bursts...)
	if err != nil {
		return nil, err
	}
	r.o.Attempted += uint64(sent)
	// On a 2-CPU host the forwarder shares the processors with the
	// generator and sink, and its wall-clock saturation rate swings by
	// ±15% with the scheduler's placement from burst to burst. Its rate
	// per second of its own CPU time is what a faster data path moves.
	sat := median(rates)
	r.o.Metrics["sink.sat_pps"] = sat
	r.o.Metrics["pkts_per_s"] = float64(satEnd.Stats.Forwarded) / (satEnd.CPU - start.CPU).Seconds()
	r.o.Metrics["netio.admit_drops"] = float64(satEnd.Stats.Dropped)
	if sh := satEnd.Shards; len(sh) > 0 && sh[0].Batches > 0 {
		r.o.Metrics["netio.recv_batch_mean"] = float64(sh[0].Received) / float64(sh[0].Batches)
		r.o.Metrics["netio.recv_batch_max"] = float64(sh[0].MaxBatch)
	}
	r.o.note("saturation bursts %.0f/s; %d sent, %d received, %d admission drops",
		rates, sent, satEnd.Stats.Received, satEnd.Stats.Dropped)

	// At 10k/s each datagram wakes the forwarder and the sink. Unpinned,
	// what a wake-up costs depends on where the scheduler put the threads,
	// and phase B's CPU per datagram and latency jump between two levels
	// from run to run.
	run, err := r.fixedRate(p, unpacedBps, smallRate, rc.budget*40/100, 0, time.Second, true)
	if err != nil {
		return nil, err
	}
	// Every datagram phase B sent and the sink did not receive failed.
	r.sink.mu.Lock()
	undelivered := run.gen.sent - run.ph.total
	r.o.Metrics["netio.egress_ratio"] = float64(run.ph.bytes) * 8 / (float64(run.ph.last-run.ph.first) / 1e9) / unpacedBps
	r.sink.mu.Unlock()
	r.o.Failed += uint64(max(undelivered, 0))
	r.finishChecks(sat)
	rss, err := r.finish()
	if err != nil {
		return nil, err
	}
	r.o.Metrics["peak_rss_mb"] = rss
	return r.o, r.writeSpans()
}

// runFwdPDD: the paper's regime on real sockets. The egress is paced at
// pddEgressPPS mean-size datagrams per second and offered 1.5 times that,
// trimodal sizes split 40/30/20/10 across classes, so WTP picks among deep
// queues, the pacer sleeps and about a third of arrivals are dropped at
// admission.
func runFwdPDD(rc *runCtx) (*outcome, error) {
	r, err := newFwdRig(rc)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	p := newPlan(rc.seed, 2, classSplit, trimodalSizes, trimodalProbs)
	rateBps := pddEgressPPS * p.meanSize() * 8
	if err := r.setup(rateBps, p); err != nil {
		return nil, err
	}
	if _, err := r.direct(p, rc.budget*8/100); err != nil {
		return nil, err
	}
	dur := rc.budget * 65 / 100
	// Unpinned: at 25k/s the forwarder needs most of one CPU, and pinned to
	// one it fell behind its pacer whenever the host took that CPU away.
	run, err := r.fixedRate(p, rateBps, pddOverload*pddEgressPPS, dur, dur/6, 0, false)
	if err != nil {
		return nil, err
	}
	ph, st := run.ph, run.end.Stats
	r.sink.mu.Lock()
	window := float64(ph.winLast-ph.winFirst) / 1e9
	delivered := float64(ph.winCount-1) / window
	egress := float64(ph.winBytes) * 8 / window / rateBps
	var sum [nClass]float64
	var n [nClass]int
	for i, d := range ph.delays {
		sum[ph.classes[i]] += float64(d)
		n[ph.classes[i]]++
	}
	r.sink.mu.Unlock()
	r.o.Metrics["pkts_per_s"] = delivered
	r.o.Metrics["sink.sat_pps"] = 0 // fwd-pdd has no saturation phase
	r.o.Metrics["netio.egress_ratio"] = egress
	r.o.Metrics["netio.admit_drops"] = float64(st.Dropped)
	if sh := run.end.Shards; len(sh) > 0 && sh[0].Batches > 0 {
		r.o.Metrics["netio.recv_batch_mean"] = float64(sh[0].Received) / float64(sh[0].Batches)
		r.o.Metrics["netio.recv_batch_max"] = float64(sh[0].MaxBatch)
	}
	r.o.check("egress-rate", math.Abs(egress-1) <= pddEgressTolerance,
		"delivered %.4f of the configured %.3g b/s after warm-up (tolerance ±%.0f%%)", egress, rateBps, 100*pddEgressTolerance)
	ratios := make([]float64, nClass-1)
	ok := true
	for c := 0; c+1 < nClass; c++ {
		ratios[c] = (sum[c] / float64(max(n[c], 1))) / (sum[c+1] / float64(max(n[c+1], 1)))
		ok = ok && math.Abs(ratios[c]/2-1) <= pddRatioTolerance
	}
	r.o.check("delay-ratios", ok, "adjacent-class mean delay ratios %.3f, target 2 ± %.0f%%", ratios, 100*pddRatioTolerance)
	r.o.note("%d sent, %d received, %d admission drops, %d forwarded", run.gen.sent, st.Received, st.Dropped, st.Forwarded)
	r.finishChecks(delivered)
	rss, err := r.finish()
	if err != nil {
		return nil, err
	}
	r.o.Metrics["peak_rss_mb"] = rss
	return r.o, r.writeSpans()
}

func sortedIndices(m map[uint64]int64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func (r *fwdRig) writeSpans() error {
	if r.tr == nil {
		return nil
	}
	if err := r.tr.write(r.rc.spanFile); err != nil {
		return err
	}
	r.o.note("spans written to %s", r.rc.spanFile)
	return nil
}

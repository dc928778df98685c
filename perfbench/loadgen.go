package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"pdds/internal/netio"
)

// The load generator and the sink share the benchmark's own process.
// Every datagram carries the forwarder's 18-byte header — class, a
// per-class sequence number and, in the timestamp field, the time the
// datagram was due — followed by the phase's tag and the datagram's index
// in the phase, which together identify it at the sink.

const (
	nClass  = 4
	ioBatch = 64
	// dgMin is the smallest datagram: header, tag and index.
	dgMin = netio.HeaderLen + 16
	// planLen is the length of a traffic plan, which repeats.
	planLen = 1 << 16
	// sockBuf is the socket buffer the generator and sink ask for. The
	// forwarder's ingress socket keeps the kernel default.
	sockBuf = 4 << 20
)

// plan is the class and size of each datagram a phase sends, drawn from
// the run's seed.
type plan struct {
	class []uint8
	size  []uint16
}

// newPlan draws classes from fractions and sizes from sizes (chosen
// uniformly when sizeProbs is nil).
func newPlan(seed uint64, salt uint64, fractions []float64, sizes []int, sizeProbs []float64) *plan {
	rng := rand.New(rand.NewPCG(seed, salt))
	p := &plan{class: make([]uint8, planLen), size: make([]uint16, planLen)}
	for i := range p.class {
		p.class[i] = uint8(pick(rng.Float64(), fractions))
		j := 0
		if sizeProbs != nil {
			j = pick(rng.Float64(), sizeProbs)
		}
		p.size[i] = uint16(sizes[j])
	}
	return p
}

func pick(u float64, probs []float64) int {
	for i, p := range probs {
		if u < p {
			return i
		}
		u -= p
	}
	return len(probs) - 1
}

func (p *plan) meanSize() float64 {
	var s float64
	for _, v := range p.size {
		s += float64(v)
	}
	return s / float64(len(p.size))
}

// phase is what the sink knows and records about one phase's datagrams.
type phase struct {
	tag  uint64
	plan *plan
	// keepDelays records each datagram's one-way delay and class.
	keepDelays bool
	// windowFrom (wall ns) starts the window over which delays are kept
	// and delivered datagrams counted; 0 keeps and counts everything.
	windowFrom int64

	total, bytes int64
	perClass     [nClass]int64
	lastSeq      [nClass]uint64
	// fifo counts datagrams that arrived behind a later one of their
	// class; bad counts datagrams whose class or size does not match
	// the plan for their index.
	fifo, bad   int64
	first, last int64
	firstSeen   chan struct{}
	delays      []float32 // µs from due to receipt
	classes     []uint8
	winCount    int64
	winBytes    int64
	winFirst    int64
	winLast     int64
	// traced maps sampled datagram indices to their receipt and
	// processed times.
	traced map[uint64][2]int64
}

func newPhase(tag uint64, p *plan, keepDelays bool) *phase {
	return &phase{tag: tag, plan: p, keepDelays: keepDelays, firstSeen: make(chan struct{})}
}

// sink receives datagrams on its own socket and files them by phase.
type sink struct {
	conn *net.UDPConn
	mc   *mmsgConn
	mu   sync.Mutex
	// phases is every phase the sink accepts, by tag; stray counts
	// datagrams that match none.
	phases map[uint64]*phase
	stray  int64
	done   chan struct{}
}

func newSink() (*sink, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	if err := conn.SetReadBuffer(sockBuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("sink: %w", err)
	}
	mc, err := newMmsgConn(conn, ioBatch, 2048)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s := &sink{conn: conn, mc: mc, phases: map[uint64]*phase{}, done: make(chan struct{})}
	go s.loop()
	return s, nil
}

func (s *sink) addr() string { return s.conn.LocalAddr().String() }

func (s *sink) add(ph *phase) {
	s.mu.Lock()
	s.phases[ph.tag] = ph
	s.mu.Unlock()
}

// stop ends the receive loop and waits for it.
func (s *sink) stop() {
	s.conn.SetReadDeadline(time.Now())
	<-s.done
	s.conn.Close()
}

func (s *sink) loop() {
	defer close(s.done)

	for {
		n, err := s.mc.readBatch()
		if err != nil {
			return
		}
		now := time.Now().UnixNano()
		s.mu.Lock()
		for i := 0; i < n; i++ {
			s.receive(s.mc.msg(i), now)
		}
		s.mu.Unlock()
	}
}

func (s *sink) receive(b []byte, now int64) {
	h, _, err := netio.Decode(b)
	if err != nil || len(b) < dgMin {
		s.stray++
		return
	}
	ph := s.phases[binary.BigEndian.Uint64(b[netio.HeaderLen:])]
	if ph == nil {
		s.stray++
		return
	}
	idx := binary.BigEndian.Uint64(b[netio.HeaderLen+8:])
	c := int(h.Class)
	if c >= nClass || ph.plan.class[idx%planLen] != h.Class || int(ph.plan.size[idx%planLen]) != len(b) {
		ph.bad++
		return
	}
	if h.Seq <= ph.lastSeq[c] {
		ph.fifo++
	} else {
		ph.lastSeq[c] = h.Seq
	}
	if ph.total == 0 {
		ph.first = now
		close(ph.firstSeen)
	}
	ph.total++
	ph.perClass[c]++
	ph.bytes += int64(len(b))
	ph.last = now
	if ph.keepDelays && now >= ph.windowFrom {
		ph.delays = append(ph.delays, float32(now-h.SentAt.UnixNano())/1e3)
		ph.classes = append(ph.classes, h.Class)
	}
	if now >= ph.windowFrom {
		if ph.winCount == 0 {
			ph.winFirst = now
		}
		ph.winCount++
		ph.winBytes += int64(len(b))
		ph.winLast = now
	}
	if ph.traced != nil && idx%traceEvery == 0 {
		ph.traced[idx] = [2]int64{now, time.Now().UnixNano()}
	}
}

// counts returns a phase's delivered count under the sink's lock.
func (s *sink) counts(phs ...*phase) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, ph := range phs {
		n += ph.total + ph.bad
	}
	return n
}

// genPhase describes what the generator sends.
type genPhase struct {
	ph   *phase
	rate float64 // datagrams per second; 0 sends as fast as it can
	dur  time.Duration
	// traceFrom, when positive, records send times of sampled datagrams
	// due at or after this offset, and splits the generator's CPU time
	// at it.
	traceFrom time.Duration
}

type genResult struct {
	start time.Time
	sent  int64
	// late is how late each datagram was sent, in µs (fixed-rate phases).
	late []float32
	// cpu and sentHalf split the process's CPU time and the datagrams at
	// traceFrom: [0] before, [1] after.
	cpu      [2]time.Duration
	sentHalf [2]int64
	// sendNs holds the send time of each sampled datagram, by index.
	sendNs map[uint64]int64
}

// generate sends a phase's datagrams to conn. It runs on a locked OS
// thread with the timer slack at 1 ns and sleeps with nanosleep: the Go
// scheduler's timers wake about 1 ms late here, which would bunch a
// 10k/s schedule into bursts.
func generate(conn *mmsgConn, g genPhase) (*genResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if _, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0); e != 0 {
		return nil, fmt.Errorf("prctl timer slack: %w", e)
	}

	bufs := make([][]byte, ioBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 1500)
	}
	msgs := make([][]byte, 0, ioBatch)
	dues := make([]int64, ioBatch)
	var seq [nClass]uint64
	res := &genResult{}
	if g.traceFrom > 0 {
		res.sendNs = map[uint64]int64{}
	}
	start := time.Now().Add(time.Millisecond)
	res.start = start
	startWall := start.UnixNano()
	var period float64
	if g.rate > 0 {
		period = float64(time.Second) / g.rate
	}
	cpuMark, _ := selfUsage()
	half := 0
	var idx uint64
	for {
		now := time.Now()
		el := now.Sub(start)
		if el >= g.dur {
			break
		}
		if g.traceFrom > 0 && half == 0 && el >= g.traceFrom {
			c, _ := selfUsage()
			res.cpu[0] = c - cpuMark
			cpuMark = c
			half = 1
		}
		n := ioBatch
		if period > 0 {
			due := uint64(0)
			if el >= 0 {
				due = uint64(float64(el)/period) + 1
			}
			if idx >= due {
				nanosleep(time.Duration(float64(idx)*period) - el)
				continue
			}
			n = int(min(due-idx, ioBatch))
		}
		msgs = msgs[:0]
		nowWall := now.UnixNano()
		for j := 0; j < n; j++ {
			i := idx + uint64(j)
			dues[j] = nowWall
			if period > 0 {
				dues[j] = startWall + int64(float64(i)*period)
			}
			msgs = append(msgs, fillDatagram(bufs[j], g.ph, i, &seq, dues[j]))
		}
		sendAt := time.Now().UnixNano()
		if err := conn.writeBatch(msgs); err != nil {
			return nil, err
		}
		if period > 0 {
			for j := 0; j < n; j++ {
				res.late = append(res.late, float32(sendAt-dues[j])/1e3)
			}
		}
		if res.sendNs != nil && half == 1 {
			sent := time.Now().UnixNano()
			for j := 0; j < n; j++ {
				if i := idx + uint64(j); i%traceEvery == 0 {
					res.sendNs[i] = sent
				}
			}
		}
		res.sentHalf[half] += int64(n)
		idx += uint64(n)
	}
	c, _ := selfUsage()
	res.cpu[half] = c - cpuMark
	res.sent = int64(idx)
	return res, nil
}

// fillDatagram writes datagram i of a phase into buf, due at due (wall
// clock ns), and returns it.
func fillDatagram(buf []byte, ph *phase, i uint64, seq *[nClass]uint64, due int64) []byte {
	c := ph.plan.class[i%planLen]
	seq[c]++
	b := netio.Header{Class: c, Seq: seq[c], SentAt: time.Unix(0, due)}.Encode(buf[:0])
	b = binary.BigEndian.AppendUint64(b, ph.tag)
	b = binary.BigEndian.AppendUint64(b, i)
	return b[:ph.plan.size[i%planLen]]
}

func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		err := syscall.Nanosleep(&ts, &ts)
		if !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// dialGen opens a generator socket to addr.
func dialGen(addr string) (*mmsgConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	if err := conn.SetWriteBuffer(sockBuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("generator: %w", err)
	}
	return newMmsgConn(conn, ioBatch, 0)
}

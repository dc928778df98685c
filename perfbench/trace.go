package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps spans in memory and writes them out when the run ends. A
// span is a timed call across a layer boundary: its name, start and end,
// the span that was open when it began (its parent) and the ID of the
// packet it handled, which all spans of one packet share.
//
// Only sampled work is timed (on is set by the caller for it); the
// wrappers count every call regardless, so per-call times extrapolate to
// whole-run totals.
type tracer struct {
	on    bool
	epoch time.Time
	// Spans are timed in ticks() since epochTick; nsPerTick converts.
	epochTick int64
	nsPerTick float64
	names     []string
	spans     []spanRec
	// cur holds the spans of the tree being timed and stack the open
	// ones, as indices into cur. The tree is copied to spans when its
	// root ends, outside any timed region: appending to a long, cold
	// slice inside one put cache misses into the times.
	cur   []spanRec
	stack []int32
	// emptyNs is the measured duration of a span with nothing inside it,
	// childNs what one such empty child adds to its parent's measured
	// duration, and bareNs the time between two bare clock reads: the
	// clock reads and bookkeeping tracing itself costs. excessNs is what
	// each child span costs its root beyond childNs in the traced code
	// itself (see calibrateChildren).
	emptyNs, childNs, bareNs, excessNs float64
}

type spanRec struct {
	id         uint64
	name       uint8
	parent     int32
	start, end int64
}

func newTracer(names ...string) *tracer {
	t := &tracer{epoch: time.Now(), epochTick: ticks(), names: names, cur: make([]spanRec, 0, 64)}
	time.Sleep(20 * time.Millisecond)
	t.nsPerTick = float64(time.Since(t.epoch)) / float64(ticks()-t.epochTick)
	t.calibrate()
	return t
}

func (t *tracer) now() int64 { return ticks() - t.epochTick }

func (t *tracer) ns(tick int64) float64 { return float64(tick) * t.nsPerTick }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name uint8, id uint64) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(len(t.cur))
	t.cur = append(t.cur, spanRec{id: id, name: name, parent: parent})
	t.stack = append(t.stack, idx)
	t.cur[idx].start = t.now()
	return idx
}

func (t *tracer) end(idx int32) {
	t.cur[idx].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		base := int32(len(t.spans))
		for _, s := range t.cur {
			if s.parent >= 0 {
				s.parent += base
			}
			t.spans = append(t.spans, s)
		}
		t.cur = t.cur[:0]
	}
}

// add records a span whose times are already known, in ns since epoch.
func (t *tracer) add(name uint8, id uint64, parent int32, startNs, endNs int64) int32 {
	tick := func(ns int64) int64 { return int64(float64(ns) / t.nsPerTick) }
	t.spans = append(t.spans, spanRec{id: id, name: name, parent: parent, start: tick(startNs), end: tick(endNs)})
	return int32(len(t.spans) - 1)
}

// setID labels a span with its packet once the packet is known (a dequeue
// learns it only on return), and the root span with it if still unlabelled.
func (t *tracer) setID(idx int32, id uint64) {
	t.cur[idx].id = id
	for p := t.cur[idx].parent; p >= 0; p = t.cur[p].parent {
		if t.cur[p].id == 0 {
			t.cur[p].id = id
		}
	}
}

// calibrate measures emptyNs, childNs and bareNs as medians over many
// empty spans.
func (t *tracer) calibrate() {
	const n = 20001
	empty := make([]float64, n)
	outer := make([]float64, n)
	bare := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := ticks()
		bare[i] = t.ns(ticks() - t0)
		t.end(t.begin(0, 0))
		b := t.begin(0, 0)
		t.end(t.begin(0, 0))
		t.end(b)
		s := t.spans
		empty[i] = t.ns(s[0].end - s[0].start)
		outer[i] = t.ns(s[1].end - s[1].start)
		t.spans = t.spans[:0]
	}
	t.emptyNs = median(empty)
	t.childNs = median(outer) - t.emptyNs
	t.bareNs = median(bare)
}

// calibrateChildren sets excessNs. Roots named root were timed with their
// children below them; plainNs is the mean of the same kind of work timed
// as a whole with two bare clock reads and no child spans. The
// difference, per child, is what timing the calls costs in place: clock
// reads, bookkeeping, and the traced branches running cold. The hot-loop
// calibration leaves part of it, which times charges to the root.
func (t *tracer) calibrateChildren(root uint8, plainNs float64) {
	var raw float64
	var roots, kids int
	for _, s := range t.spans {
		switch {
		case s.parent >= 0:
			kids++
		case s.name == root:
			raw += t.ns(s.end - s.start)
			roots++
		}
	}
	if roots == 0 || kids == 0 {
		return
	}
	work := plainNs - t.bareNs
	t.excessNs = (raw/float64(roots)-t.emptyNs-work)/(float64(kids)/float64(roots)) - t.childNs
}

// layerTime is the corrected time spent in spans of one name.
type layerTime struct {
	spans int
	// total is the summed duration, self the summed duration minus the
	// children's, both in ns with tracing's own cost removed.
	total, self float64
}

// times returns the corrected total and self time per span name.
func (t *tracer) times() []layerTime {
	out := make([]layerTime, len(t.names))
	childCost := make([]float64, len(t.spans))
	// A tree's spans follow its root; the root pays excessNs per span
	// below it.
	root := 0
	for i, s := range t.spans {
		if s.parent < 0 {
			root = i
		} else {
			childCost[root] += t.excessNs
		}
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		raw := t.ns(s.end - s.start)
		if s.parent >= 0 {
			childCost[s.parent] += raw - t.emptyNs + t.childNs
		}
		lt := &out[s.name]
		lt.spans++
		lt.total += raw - t.emptyNs
		lt.self += raw - t.emptyNs - childCost[i]
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			Index  int    `json:"index"`
			ID     uint64 `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.id, t.names[s.name], s.parent, int64(t.ns(s.start)), int64(t.ns(s.end))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

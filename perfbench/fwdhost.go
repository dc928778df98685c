package main

import (
	"errors"
	"sync"
	"time"

	"pdds"
)

// fwdStartRequest asks the system-under-test process to start a
// forwarder: WTP with SDPs 1,2,4,8, one ingress shard, the default
// 4096-packet queue bound.
type fwdStartRequest struct {
	Forward string        `json:"forward"`
	RateBps float64       `json:"rate_bps"`
	Drain   time.Duration `json:"drain_ns"`
	// SampleQueue averages the forwarder's backlog every queueSampleEvery
	// (traced runs only: it takes the forwarder's stats lock).
	SampleQueue bool `json:"sample_queue"`
}

const queueSampleEvery = 5 * time.Millisecond

// fwdReply is a snapshot of the forwarder and of its process.
type fwdReply struct {
	Addr string `json:"addr"`
	// StartNs is the wall clock just before StartForwarderWithConfig.
	StartNs    int64                      `json:"start_ns"`
	Stats      pdds.ForwarderStats        `json:"stats"`
	Shards     []pdds.ForwarderShardStats `json:"shards"`
	Classes    []pdds.LiveClassStats      `json:"classes"`
	CPU        time.Duration              `json:"cpu_ns"`
	Mem        memSnap                    `json:"mem"`
	QueuedMean float64                    `json:"queued_mean"`
}

// fwdHost runs in the system-under-test process and owns at most one
// forwarder at a time.
type fwdHost struct {
	f    *pdds.Forwarder
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	qSum float64
	qN   int
}

func (h *fwdHost) start(req *fwdStartRequest) (*fwdReply, error) {
	if req == nil {
		return nil, errors.New("fwd-start: empty request")
	}
	if h.f != nil {
		return nil, errors.New("fwd-start: a forwarder is already running")
	}
	t := time.Now()
	f, err := pdds.StartForwarderWithConfig(pdds.ForwarderConfig{
		Listen:       "127.0.0.1:0",
		Forward:      req.Forward,
		Scheduler:    pdds.WTP,
		SDP:          paperSDP,
		RateBps:      req.RateBps,
		Shards:       1,
		DrainTimeout: req.Drain,
	})
	if err != nil {
		return nil, err
	}
	h.f = f
	h.qSum, h.qN = 0, 0
	if req.SampleQueue {
		h.stop = make(chan struct{})
		h.wg.Add(1)
		go h.sampleQueue()
	}
	rep := h.snapshot()
	rep.Addr = f.Addr().String()
	rep.StartNs = t.UnixNano()
	return rep, nil
}

func (h *fwdHost) sampleQueue() {
	defer h.wg.Done()
	tick := time.NewTicker(queueSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			q := h.f.Stats().Queued
			h.mu.Lock()
			h.qSum += float64(q)
			h.qN++
			h.mu.Unlock()
		}
	}
}

func (h *fwdHost) snap() (*fwdReply, error) {
	if h.f == nil {
		return nil, errors.New("fwd-snap: no forwarder running")
	}
	return h.snapshot(), nil
}

// close stops the forwarder; the returned snapshot holds its final
// counters.
func (h *fwdHost) close() (*fwdReply, error) {
	if h.f == nil {
		return nil, errors.New("fwd-close: no forwarder running")
	}
	if h.stop != nil {
		close(h.stop)
		h.wg.Wait()
		h.stop = nil
	}
	err := h.f.Close()
	rep := h.snapshot()
	h.f = nil
	return rep, err
}

func (h *fwdHost) snapshot() *fwdReply {
	cpu, _ := selfUsage()
	rep := &fwdReply{
		Stats:   h.f.Stats(),
		Shards:  h.f.ShardStats(),
		Classes: h.f.ClassStats(),
		CPU:     cpu,
		Mem:     readMem(),
	}
	h.mu.Lock()
	if h.qN > 0 {
		rep.QueuedMean = h.qSum / float64(h.qN)
	}
	h.mu.Unlock()
	return rep
}

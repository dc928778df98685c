package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// The system under test runs in a child process of its own, the same
// binary started as "perfbench sut", so that its CPU time, peak RSS and
// garbage collector are its alone: the load generator and sink stay in the
// parent. Parent and child talk in JSON lines over the child's stdin and
// stdout; the child's stderr passes through.

type sutRequest struct {
	Op  string           `json:"op"`
	Sim *simRequest      `json:"sim,omitempty"`
	Fwd *fwdStartRequest `json:"fwd,omitempty"`
	// CPU is where "pin" restricts the process.
	CPU int `json:"cpu,omitempty"`
}

type sutReply struct {
	Err        string    `json:"err,omitempty"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Sim        *outcome  `json:"sim,omitempty"`
	Fwd        *fwdReply `json:"fwd,omitempty"`
}

// sutMain serves requests until stdin closes.
func sutMain() int {
	dec := json.NewDecoder(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	host := &fwdHost{}
	defer host.close()
	for {
		var req sutRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			return 1
		}
		rep := sutReply{GOMAXPROCS: runtime.GOMAXPROCS(0)}
		var err error
		switch req.Op {
		case "sim":
			rep.Sim, err = runSim(req.Sim)
		case "fwd-start":
			rep.Fwd, err = host.start(req.Fwd)
		case "fwd-snap":
			rep.Fwd, err = host.snap()
		case "fwd-close":
			rep.Fwd, err = host.close()
		case "pin":
			err = pinProcess(req.CPU)
		default:
			err = fmt.Errorf("unknown op %q", req.Op)
		}
		if err != nil {
			rep.Err = err.Error()
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			return 1
		}
	}
}

// sutProc is the parent's handle on the child.
type sutProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
	// gomaxprocs is the child's, from its latest reply.
	gomaxprocs int
}

func startSUT() (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, "sut")
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start system-under-test process: %w", err)
	}
	return &sutProc{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// call sends one request and waits for its reply. A child that does not
// answer within timeout is killed, so a hung forwarder cannot hang the run.
func (p *sutProc) call(req sutRequest, timeout time.Duration) (*sutReply, error) {
	if err := p.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("send %s: %w", req.Op, err)
	}
	type result struct {
		rep sutReply
		err error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.err = p.dec.Decode(&r.rep)
		done <- r
	}()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, fmt.Errorf("%s: read reply: %w", req.Op, r.err)
		}
		p.gomaxprocs = r.rep.GOMAXPROCS
		if r.rep.Err != "" {
			return nil, fmt.Errorf("%s: %s", req.Op, r.rep.Err)
		}
		return &r.rep, nil
	case <-time.After(timeout):
		p.kill()
		<-done
		return nil, fmt.Errorf("%s: no reply within %v", req.Op, timeout)
	}
}

// finish closes the child's stdin, waits for it to exit and returns its
// resource usage (peak RSS and CPU time over its whole life).
func (p *sutProc) finish() (*syscall.Rusage, error) {
	p.stdin.Close()
	waited := make(chan error, 1)
	go func() { waited <- p.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			return nil, fmt.Errorf("system-under-test process: %w", err)
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-waited
		return nil, errors.New("system-under-test process did not exit")
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no resource usage for system-under-test process")
	}
	return ru, nil
}

// kill stops the child without waiting for a reply; used on error paths.
func (p *sutProc) kill() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
	}
}

// cleanup kills a child that finish did not reap and waits for it.
func (p *sutProc) cleanup() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// selfUsage returns this process's CPU time (user plus system) and peak RSS.
func selfUsage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rusageCPU(&ru), ru.Maxrss
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo identifies the machine a result was measured on. Two results
// are comparable only when every field matches: the same code measured
// 16k pkts/s on one CPU and 150k on two.
type hostInfo struct {
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	Kernel      string `json:"kernel"`
	GoVersion   string `json:"go_version"`
	Clocksource string `json:"clocksource"`
	// RmemDefault and RmemMax are net.core.rmem_default/rmem_max. The
	// forwarder never raises its ingress SO_RCVBUF, so it inherits
	// rmem_default, which sets how long a stall it survives without loss.
	RmemDefault int64 `json:"rmem_default"`
	RmemMax     int64 `json:"rmem_max"`
	// GOMAXPROCS of the benchmark process, which runs the generator and
	// sink, and of the process hosting the system under test.
	GOMAXPROCS    int `json:"gomaxprocs"`
	SUTGOMAXPROCS int `json:"sut_gomaxprocs"`
}

func recordHost() hostInfo {
	return hostInfo{
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		Kernel:      readTrimmed("/proc/sys/kernel/osrelease"),
		GoVersion:   runtime.Version(),
		Clocksource: readTrimmed("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
		RmemDefault: readInt("/proc/sys/net/core/rmem_default"),
		RmemMax:     readInt("/proc/sys/net/core/rmem_max"),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// differences lists the fields in which two hosts differ.
func (h hostInfo) differences(o hostInfo) []string {
	var d []string
	add := func(field string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s: %v vs %v", field, a, b))
		}
	}
	add("cpu_model", h.CPUModel, o.CPUModel)
	add("nproc", h.NProc, o.NProc)
	add("kernel", h.Kernel, o.Kernel)
	add("go_version", h.GoVersion, o.GoVersion)
	add("clocksource", h.Clocksource, o.Clocksource)
	add("rmem_default", h.RmemDefault, o.RmemDefault)
	add("rmem_max", h.RmemMax, o.RmemMax)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("sut_gomaxprocs", h.SUTGOMAXPROCS, o.SUTGOMAXPROCS)
	return d
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d (system under test %d), kernel %s, %s, clocksource %s, rmem_default %d, rmem_max %d",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.SUTGOMAXPROCS, h.Kernel, h.GoVersion, h.Clocksource, h.RmemDefault, h.RmemMax)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func readInt(path string) int64 {
	v, err := strconv.ParseInt(readTrimmed(path), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuStat returns the steal and total jiffies of all CPUs from /proc/stat,
// or zeros where it cannot be read.
func cpuStat() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

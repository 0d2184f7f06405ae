package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks is the machine-wide "cpu" line of /proc/stat.
type cpuTicks struct {
	total, idle, steal uint64
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i >= 8 { // guest time is already counted in user
			break
		}
		t.total += v
		switch i {
		case 3, 4: // idle, iowait
			t.idle += v
		case 7:
			t.steal += v
		}
	}
	return t
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

// envRecord describes the machine and its contention during the timed
// window. It is diagnostic, never gated: it tells a run slowed by
// another tenant (high steal, low idle, low own utilisation) from a
// slow program.
type envRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealPct   float64 `json:"steal_pct"`
	IdlePct    float64 `json:"idle_pct"`
	// ProcCPUPct is the process's CPU time over the window as a share
	// of wall time × nproc.
	ProcCPUPct float64 `json:"process_cpu_pct"`
}

func newEnvRecord(before, after cpuTicks, cpu, wall time.Duration) envRecord {
	e := envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	if d := after.total - before.total; after.total > before.total {
		e.StealPct = 100 * float64(after.steal-before.steal) / float64(d)
		e.IdlePct = 100 * float64(after.idle-before.idle) / float64(d)
	}
	if wall > 0 {
		e.ProcCPUPct = 100 * cpu.Seconds() / (wall.Seconds() * float64(e.NumCPU))
	}
	return e
}

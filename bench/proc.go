package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCPU returns the CPU time a process has consumed so far: the on-CPU
// nanoseconds of its threads from /proc/<pid>/task/*/schedstat, which
// resolves a 300 ms smoke window where the 10 ms ticks of /proc/<pid>/stat
// would read zero. (A thread that has exited takes its share with it; the Go
// runtime all but never retires threads.)
func procCPU(pid int) (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for process %d", pid)
	}
	var total int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// selfCPU is the harness process's own user+system CPU time (microsecond
// resolution), the cost of a design workload's in-process Design calls.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the peak resident set size (VmHWM) of a process in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// hostMeta is the fingerprint stamped into every result file; results from
// different fingerprints are not comparable and -compare refuses them.
type hostMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() hostMeta {
	return hostMeta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

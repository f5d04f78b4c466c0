package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles the real flexile-serve binary from the checkout the
// harness runs in. The go build cache makes every build after the first a
// sub-second no-op; the binary is written under a private name and renamed
// so that concurrent runs in one checkout never execute a half-written
// file.
func buildDaemon(ctx context.Context, root string) (string, error) {
	daemonBuilt.Lock()
	defer daemonBuilt.Unlock()
	if daemonBuilt.root == root {
		return daemonBuilt.path, nil // this process already built it (an in-process smoke pass runs several workloads)
	}
	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(binDir, "flexile-serve")
	tmp := fmt.Sprintf("%s.%d", final, os.Getpid())
	cmd := exec.CommandContext(ctx, "go", "build", "-o", tmp, "./cmd/flexile-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("building flexile-serve: %v\n%s", err, out)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	daemonBuilt.root, daemonBuilt.path = root, final
	return final, nil
}

// daemonBuilt remembers the one build a process needs.
var daemonBuilt struct {
	sync.Mutex
	root, path string
}

// daemon is one running flexile-serve child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
}

// startDaemon launches flexile-serve on a free loopback port and waits for
// /readyz. The child dies with the harness (Pdeathsig) even if the harness
// is killed outright.
func startDaemon(ctx context.Context, bin, tmp string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(tmp, "flexile-serve.log"))
	if err != nil {
		return nil, err
	}
	full := append([]string{"-listen", addr, "-log-sample", "1000000"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		gone := false
		select {
		case <-d.exited:
			gone = true
		default:
		}
		if gone || ctx.Err() != nil || time.Now().After(deadline) {
			d.stop()
			tail, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("flexile-serve did not become ready: %v\n%s", err, tail)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the graceful drain, and kills the child if
// it has not exited after five seconds. It returns only once the process
// has ended.
func (d *daemon) stop() {
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// promPage is one parsed /metrics page: series name → value.
type promPage map[string]float64

// scrape fetches /metrics and indexes every sample by its full series name
// (metric name plus the label block as printed), e.g.
// `flexile_serve_stage_duration_seconds_sum{stage="admit"}`.
func (d *daemon) scrape(client *http.Client) (promPage, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	page := make(promPage)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		page[line[:i]] = v
	}
	return page, sc.Err()
}

// delta is after[name] − before[name]; series absent from both read 0.
func (after promPage) delta(before promPage, name string) float64 {
	return after[name] - before[name]
}

// meanDelta is the mean of a histogram family over the scrape interval:
// Δ_sum ÷ Δ_count, in the family's own unit (seconds). labels is the label
// block including braces, or "".
func (after promPage) meanDelta(before promPage, family, labels string) float64 {
	n := after.delta(before, family+"_count"+labels)
	if n <= 0 {
		return 0
	}
	return after.delta(before, family+"_sum"+labels) / n
}

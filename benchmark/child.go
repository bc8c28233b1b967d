package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where one harness process builds, launches and writes.
type env struct {
	root     string // repository root (holds cmd/twe-serve)
	buildDir string // binaries and scratch files; inside the checkout
	outDir   string // reports and traces
	runDir   string // this process's address files and child logs
	buildS   float64
	launches int // systems launched so far; keeps their scratch files apart
}

// buildChildren compiles the real daemons from the checkout's source.
// The time is part of harness.build_s and of no other metric.
func (e *env) buildChildren() error {
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", e.buildDir+string(os.PathSeparator),
		"./cmd/twe-serve", "./cmd/twe-router")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build of the daemons failed: %v\n%s", err, out)
	}
	e.buildS += time.Since(t0).Seconds()
	return nil
}

// child is one launched daemon.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *bytes.Buffer
	done chan struct{} // closed when Wait returned
	err  error         // Wait's result, valid after done
}

// launch starts bin with args; its output is kept for failure reports.
func (e *env) launch(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, log: &bytes.Buffer{}, done: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(e.buildDir, bin), args...)
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	go func() { c.err = c.cmd.Wait(); close(c.done) }()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// waitFile polls for a non-empty file the child writes once it listens.
func (c *child) waitFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-c.done:
			return "", fmt.Errorf("%s exited before listening: %v\n%s", c.name, c.err, c.log)
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not listen within %v", c.name, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// terminate asks the child to drain (SIGTERM) and waits for it; a child
// that has not exited after grace is killed. clean reports a graceful
// exit with code 0 — the daemons' own drain audit passed.
func (c *child) terminate(grace time.Duration) (clean bool) {
	select {
	case <-c.done:
		return false // died on its own before being asked
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return c.err == nil
	case <-time.After(grace):
		c.kill()
		return false
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// clockTick is the kernel's USER_HZ. It is 100 on every Linux port Go
// supports; reading it needs cgo (sysconf), which the harness avoids.
const clockTick = 100

// cpuMS returns the user+system CPU time the process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func cpuMS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 1000 / clockTick
}

// peakRSSMB returns the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPUMS is the harness's own user+system CPU time.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func httpGetJSON(url string, v any) error {
	b, err := httpGet(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// promSample is a parsed Prometheus text exposition: series name with
// its label set, verbatim, to value.
type promSample map[string]float64

// parseProm reads the text exposition format the daemons emit (no
// timestamps, no escapes inside the label values the harness looks up).
func parseProm(text []byte) promSample {
	out := promSample{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// env is where the benchmark lives on disk: the checkout root (the flowcube
// module), the shipped binaries built from it, and a scratch directory.
// Everything it writes is under root/.bench_build or root/benchmark/out.
type env struct {
	root     string
	bin      string  // directory holding flowgen, flowquery, flowserve
	tmp      string  // parent of per-run scratch directories
	out      string  // traces and A/A reports
	compileS float64 // one-off go build of the binaries; printed, not a metric

	// Every child started and scratch directory made, so that cleanup can
	// end them on any exit path. Only the main goroutine touches these.
	servers []*child
	dirs    []string
}

// findRoot walks up from the working directory to the flowcube module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module flowcube\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no flowcube module (go.mod with \"module flowcube\") at or above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the checkout and builds the shipped binaries from source.
// The build is incremental: a second call in the same checkout relinks
// nothing.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root,
		bin:  filepath.Join(root, ".bench_build", "bin"),
		tmp:  filepath.Join(root, ".bench_build", "tmp"),
		out:  filepath.Join(root, "benchmark", "out"),
	}
	for _, dir := range []string{e.bin, e.tmp, e.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/flowgen", "./cmd/flowquery", "./cmd/flowserve")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build of the shipped binaries: %v\n%s", err, outp)
	}
	e.compileS = time.Since(start).Seconds()
	return e, nil
}

// scratch makes a scratch directory that cleanup removes.
func (e *env) scratch() (string, error) {
	dir, err := os.MkdirTemp(e.tmp, "run-")
	if err == nil {
		e.dirs = append(e.dirs, dir)
	}
	return dir, err
}

// cleanup kills every child still running, waits for it, and removes the
// scratch directories. main defers it, so it runs on success, on error and
// on a signal alike.
func (e *env) cleanup() {
	for _, s := range e.servers {
		s.kill()
	}
	for _, dir := range e.dirs {
		_ = os.RemoveAll(dir) // best effort; the next run uses a fresh name
	}
	e.servers, e.dirs = nil, nil
}

// toolRun is one finished run of a command-line binary.
type toolRun struct {
	stdout []byte
	wall   time.Duration
	rssMB  float64
}

// runTool runs one of the shipped binaries to completion. A non-zero exit
// is an error carrying the child's stderr. The child's peak resident set is
// polled from /proc while it runs (see peakRSSMB).
func (e *env) runTool(ctx context.Context, name string, args ...string) (toolRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return toolRun{}, err
	}
	done := make(chan error, 1) // one send, so the waiter never blocks
	go func() { done <- cmd.Wait() }()
	var run toolRun
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-time.After(10 * time.Millisecond):
			if mb := peakRSSMB(cmd.Process.Pid); mb > run.rssMB {
				run.rssMB = mb
			}
		}
	}
	run.stdout, run.wall = stdout.Bytes(), time.Since(start)
	if err != nil {
		return run, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return run, nil
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from /proc, 0
// when it cannot. ru_maxrss is not used: at a child's first exec Linux folds
// the forking process's own peak into it, and the harness, which builds
// cubes itself, is often larger than the child it starts.
func peakRSSMB(pid int) float64 {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(status), "VmHWM:")
	if !ok {
		return 0
	}
	var kb float64
	if _, err := fmt.Sscan(rest, &kb); err != nil {
		return 0
	}
	return kb / 1024
}

// child is one running flowserve process.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string        // http://127.0.0.1:port
	ready  time.Duration // exec → first 200 from /healthz
	exited chan error    // receives Wait's result, once
	reaped bool          // that result has been received
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startServer execs flowserve on a free port and polls /healthz every
// millisecond until the first 200. The poller opens a connection per
// attempt, so it never shares one with a measuring client.
func (e *env) startServer(ctx context.Context, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &child{base: "http://" + addr}
	s.cmd = exec.Command(filepath.Join(e.bin, "flowserve"), append([]string{"-addr", addr, "-quiet"}, args...)...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	e.servers = append(e.servers, s)
	exited := make(chan error, 1) // one send, so the waiter never blocks
	go func() { exited <- s.cmd.Wait() }()
	s.exited = exited

	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		resp, err := poll.Get(s.base + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			_ = resp.Body.Close() // status is all the poll wants
			if ok {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		select {
		case err := <-exited:
			s.reaped = true
			return nil, fmt.Errorf("flowserve %s exited before becoming ready: %v\n%s",
				strings.Join(args, " "), err, s.stderr.Bytes())
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// kill stops the child with SIGKILL, waits until it has ended, and returns
// its peak resident set as read just before the signal. Safe to call twice
// (the second call returns 0). Only the main goroutine calls it.
func (s *child) kill() float64 {
	if s.reaped {
		return 0
	}
	peak := peakRSSMB(s.cmd.Process.Pid)
	_ = s.cmd.Process.Kill() // already gone is fine
	<-s.exited
	s.reaped = true
	return peak
}

// stderrTail returns the end of what the child wrote to standard error. Call
// it only after kill: until then the copier goroutine owns the buffer.
func (s *child) stderrTail() string {
	b := s.stderr.Bytes()
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

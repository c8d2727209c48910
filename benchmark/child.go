package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildFlatserve compiles the repo's cmd/flatserve into dir and returns
// the binary's path. The go tool inherits this process's environment,
// so a caller that confines GOCACHE (run.sh does) confines the build.
func buildFlatserve(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "flatserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/flatserve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/flatserve in %s: %v\n%s", repoRoot, err, out)
	}
	return bin, nil
}

// child is one running flatserve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	drain  chan struct{} // closed when stdout hits EOF
}

// startServer launches flatserve over the index directory with its
// defaults (mmap on, WAL on, unbounded page cache, 128-element result
// frames) on a kernel-chosen loopback port, and returns once the
// server has printed its "serving … on ADDR" line.
func startServer(bin, indexDir string) (*child, error) {
	c := &child{drain: make(chan struct{})}
	c.cmd = exec.Command(bin, "-index", indexDir, "-addr", "127.0.0.1:0")
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(c.drain)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "flatserve: serving DIR on ADDR"
			if line := sc.Text(); strings.Contains(line, ": serving ") {
				if i := strings.LastIndex(line, " on "); i >= 0 {
					addrc <- line[i+len(" on "):]
					break
				}
			}
		}
		// Keep the pipe drained so the server never blocks on a log line.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case c.addr = <-addrc:
		return c, nil
	case <-c.drain:
		c.kill()
		return nil, fmt.Errorf("flatserve exited before serving: %s", strings.TrimSpace(c.stderr.String()))
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("flatserve did not start serving within 60s: %s", strings.TrimSpace(c.stderr.String()))
	}
}

// kill sends SIGKILL — the crash the write-ahead log exists for — and
// waits until the process is gone. Safe to call twice.
func (c *child) kill() {
	if c == nil || c.cmd.ProcessState != nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.drain
	c.cmd.Wait()
}

// clockTick is USER_HZ, the unit of /proc/PID/stat's CPU fields. Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 100

// cpu returns the child's user+system CPU time so far, summed over its
// threads.
func (c *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14, 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSS returns the child's resident-set high-water mark in bytes.
func (c *child) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one `imprecise serve` child process.
type node struct {
	cmd    *exec.Cmd
	url    string // http://127.0.0.1:port
	args   []string
	stderr bytes.Buffer
	drain  sync.WaitGroup
}

// serveArgs is the command line every benchmarked server runs with: the
// issue fixes it, and every flag not named keeps its default (fsync before
// a write is visible, compaction every 64 ops, result cache 512,
// compiled-query cache 256, -query-workers 0).
func serveArgs(dataDir, dtdPath string, extra ...string) []string {
	return append([]string{"serve", "-data", dataDir, "-addr", "127.0.0.1:0", "-root", "catalog",
		"-dtd", dtdPath, "-rules", "genre,title,year", "-quiet"}, extra...)
}

// startNode launches the server and waits for its banner, which it prints
// once recovery is complete and the listener is open. The returned
// duration runs from exec to banner.
func startNode(bin string, args []string) (*node, time.Duration, error) {
	n := &node{cmd: exec.Command(bin, args...), args: args}
	n.cmd.Stderr = &n.stderr
	// The children die with the harness even when it is killed.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := n.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := n.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	rd := bufio.NewReader(out)
	line, err := rd.ReadString('\n')
	took := time.Since(start)
	_, rest, ok := strings.Cut(line, "serving IMPrECISE on ")
	if err != nil || !ok {
		n.kill()
		return nil, 0, fmt.Errorf("server did not start: %q %v: %s", line, err, n.stderr.String())
	}
	n.url, _, _ = strings.Cut(rest, " ")
	n.drain.Add(1)
	go func() { // -quiet leaves little to read, but a full pipe would block the child
		defer n.drain.Done()
		_, _ = io.Copy(io.Discard, rd)
	}()
	return n, took, nil
}

// kill sends SIGKILL — the benchmark never shuts a server down cleanly, so
// every restart is a crash recovery — and waits for the process to end.
func (n *node) kill() {
	if n == nil || n.cmd.Process == nil {
		return
	}
	_ = n.cmd.Process.Kill()
	n.drain.Wait()
	_ = n.cmd.Wait()
}

// cpuSeconds is utime+stime of the child from /proc/<pid>/stat.
func (n *node) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	_, rest, _ := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux the Go runtime supports
}

// rssPeakMB is the child's peak resident set (VmHWM).
func (n *node) rssPeakMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

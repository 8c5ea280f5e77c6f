package main

import (
	"bufio"
	"errors"
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

// readyTimeout bounds how long valoisd may take to listen (recovering a
// log on restart included).
const readyTimeout = 60 * time.Second

// daemon is one running valoisd process.
type daemon struct {
	cmd        *exec.Cmd
	addr       string
	gomaxprocs int
	exited     chan struct{} // closed once Wait has returned
	log        *tailLog
}

// daemonArgs returns valoisd's flags for a workload. dataDir is the AOF
// directory, used only when the workload runs with a log.
func daemonArgs(w *workload, dataDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-backend", w.backend, "-mode", w.mode,
		"-shards", strconv.Itoa(shards), "-protocol", "resp",
	}
	if w.fsync != "" {
		args = append(args, "-aof", "-data-dir", dataDir, "-fsync", w.fsync)
	}
	return args
}

// startDaemon execs valoisd and returns once it is listening.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// The kernel kills valoisd if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start valoisd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), log: &tailLog{}}
	ready := make(chan string, 1)
	go func() {
		// Drain stderr for the process's whole life, keeping the tail
		// for error reports; the first "serving on" line carries the
		// bound address.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if !sent && strings.Contains(line, "serving on ") {
				ready <- line
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // after an over-long line
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case line := <-ready:
		if err := d.parseReady(line); err != nil {
			d.kill()
			return nil, err
		}
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("valoisd exited before serving: %s", d.log)
	case <-time.After(readyTimeout):
		d.kill()
		return nil, fmt.Errorf("valoisd not serving after %v: %s", readyTimeout, d.log)
	}
}

// parseReady reads the address and GOMAXPROCS from valoisd's line
// "valoisd: serving on ADDR (backend=... gomaxprocs=N)".
func (d *daemon) parseReady(line string) error {
	_, rest, _ := strings.Cut(line, "serving on ")
	addr, rest, ok := strings.Cut(rest, " ")
	if !ok || addr == "" {
		return fmt.Errorf("unparsable valoisd ready line %q", line)
	}
	d.addr = addr
	if _, g, ok := strings.Cut(rest, "gomaxprocs="); ok {
		d.gomaxprocs, _ = strconv.Atoi(strings.TrimRight(g, ")"))
	}
	return nil
}

// kill SIGKILLs valoisd and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-d.exited
}

// stop asks valoisd to drain and exit (SIGTERM), falling back to SIGKILL.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// cpuTime returns valoisd's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const hz = 100 // USER_HZ, the unit of /proc times on Linux
	return time.Duration(utime+stime) * time.Second / hz, nil
}

// peakRSSMB returns valoisd's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailLog keeps the last lines of a process's stderr.
type tailLog struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailLog) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[len(t.lines)-20:]
	}
}

func (t *tailLog) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

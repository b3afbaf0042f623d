package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one finished child process used.
type usage struct {
	wall   time.Duration
	net    time.Duration // wall net of host steal
	cpu    time.Duration // user + sys
	maxRSS int64         // bytes, the last peak read while it ran
}

// rssPoll is how often run reads a running child's peak resident set.
const rssPoll = 10 * time.Millisecond

// peakRSS reads a running process's peak resident set (VmHWM) from
// /proc. The rusage figure cannot stand in for it: a child started
// from the benchmark carries the benchmark's own high-water mark across
// exec, so its ru_maxrss counts the benchmark's memory too.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// run runs a program to completion, with its standard error kept in
// logPath, and reports its usage. Its peak resident set is read every
// rssPoll while it runs; the peak is monotone, so the last reading
// misses at most the growth of the last rssPoll.
func run(logPath string, name string, args ...string) (usage, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return usage{}, err
	}
	defer logf.Close()
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = orphanKill()
	cmd.Stdout = logf
	cmd.Stderr = logf
	h0, t0 := readHost(), time.Now()
	var u usage
	if err = cmd.Start(); err == nil {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		tick := time.NewTicker(rssPoll)
		for waiting := true; waiting; {
			select {
			case err = <-done:
				waiting = false
			case <-tick.C:
				if v, e := peakRSS(cmd.Process.Pid); e == nil {
					u.maxRSS = v
				}
			}
		}
		tick.Stop()
	}
	u.wall = time.Since(t0)
	u.net = netOfSteal(u.wall, h0, readHost())
	if ps := cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
	}
	if err != nil {
		return u, fmt.Errorf("%s %s: %w (log in %s)", name, strings.Join(args, " "), err, logPath)
	}
	return u, nil
}

// orphanKill makes the kernel kill a child if the benchmark dies first,
// so no program outlives its run.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// server is a running catsserve.
type server struct {
	cmd  *exec.Cmd
	base string
	logf *os.File
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots catsserve on a free loopback port and waits until
// /readyz answers 200.
func startServer(bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = orphanKill()
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, logf: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-s.done:
			logf.Close()
			return nil, fmt.Errorf("catsserve exited during boot: %v (log in %s)", err, logPath)
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("catsserve not ready after 60s (log in %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpu reads the server's user+sys time so far from /proc.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", rest)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// stop asks catsserve to drain and exit, killing it if it will not,
// and reports its usage over its whole life: CPU from the kernel's
// accounting, the peak resident set as read just before the drain.
func (s *server) stop() (usage, error) {
	defer s.logf.Close()
	var u usage
	u.maxRSS, _ = peakRSS(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		err = fmt.Errorf("catsserve did not drain within 30s")
	}
	if ps := s.cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
	}
	return u, err
}

// hostCPU is a reading of the VM's CPU accounting in /proc/stat, in
// clock ticks: time spent running anything, and time the hypervisor
// withheld from a vCPU that had work to run (steal).
type hostCPU struct{ busy, steal int64 }

func readHost() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	n := func(i int) int64 { v, _ := strconv.ParseInt(f[i], 10, 64); return v }
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: n(1) + n(2) + n(3) + n(6) + n(7), steal: n(8)}
}

// netOfSteal scales a wall time measured between two readings by the
// share of the CPU time asked for in between that the host actually
// gave: on a machine that steals nothing it is the wall time itself.
func netOfSteal(wall time.Duration, a, b hostCPU) time.Duration {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(busy) / float64(busy+steal))
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// placement says which CPUs the server and the generator run on.
type placement struct {
	nproc     int
	generator string // CPU of this process; "" when unpinned
	server    string // taskset CPU list for sqlserved; "" when unpinned
	spinners  string // CPUs with an idle spinner; "" for none
}

func (p placement) String() string {
	if p.server == "" {
		return fmt.Sprintf("placement: unpinned (nproc %d), %d connections, no idle spinners", p.nproc, p.nproc)
	}
	spin := "no idle spinners"
	if p.spinners != "" {
		spin = "SCHED_IDLE spinners on cpu " + p.spinners
	}
	return fmt.Sprintf("placement: generator on cpu %s, sqlserved on cpu %s (nproc %d), %d connections, %s",
		p.generator, p.server, p.nproc, p.nproc, spin)
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(data), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		var cpus []int
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil
			}
			b := a
			if isRange {
				if b, err = strconv.Atoi(hi); err != nil {
					return nil
				}
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		}
		return cpus
	}
	return nil
}

// The pinned child learns its placement from the parent through these.
const (
	envGenCPU = "SERVEBENCH_GENERATOR_CPU"
	envSrvCPU = "SERVEBENCH_SERVER_CPUS"
	envNproc  = "SERVEBENCH_NPROC"
)

// pin gives the generator the first allowed CPU and sqlserved the rest,
// when there are at least two and taskset exists. Go cannot set the
// affinity of all its own threads, so pinning re-execs this program
// under taskset; pin returns in the pinned child, or unpinned.
func pin() (placement, error) {
	if gen := os.Getenv(envGenCPU); gen != "" {
		n, err := strconv.Atoi(os.Getenv(envNproc))
		return placement{nproc: n, generator: gen, server: os.Getenv(envSrvCPU)}, err
	}
	cpus := allowedCPUs()
	p := placement{nproc: max(len(cpus), 1)}
	taskset, err := exec.LookPath("taskset")
	if len(cpus) < 2 || err != nil {
		return p, nil
	}
	self, err := os.Executable()
	if err != nil {
		return p, err
	}
	srv := make([]string, 0, len(cpus)-1)
	for _, c := range cpus[1:] {
		srv = append(srv, strconv.Itoa(c))
	}
	env := append(os.Environ(), envGenCPU+"="+strconv.Itoa(cpus[0]),
		envSrvCPU+"="+strings.Join(srv, ","), envNproc+"="+strconv.Itoa(len(cpus)))
	args := append([]string{"taskset", "-c", strconv.Itoa(cpus[0]), self}, os.Args[1:]...)
	return p, syscall.Exec(taskset, args, env)
}

// serverProc is one running sqlserved.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan error // receives cmd.Wait's result
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs sqlserved -warm all and returns once /readyz answers
// 200, with the time from exec to that answer: one setup_s sample.
func startServer(bin string, pl placement, log io.Writer) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{bin, "-addr", addr, "-warm", "all"}
	if pl.server != "" {
		args = append([]string{"taskset", "-c", pl.server}, args...)
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server dies with the generator, however the generator ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sqlserved: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	for {
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("sqlserved exited before ready: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("sqlserved not ready after 60s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("sqlserved drain: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("sqlserved did not drain within 30s")
	}
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// cpuTime is the server's CPU time so far: the sum of its threads'
// on-CPU nanoseconds from schedstat, which unlike utime+stime is not
// rounded to 10 ms ticks (a 0.5 s window holds only 50 of them). Go
// keeps its threads, so no thread's time drops out of the sum. Without
// schedstat it falls back to utime+stime.
func (s *serverProc) cpuTime() (time.Duration, error) {
	pid := s.cmd.Process.Pid
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			return procCPU(pid)
		}
		ns, _, _ := strings.Cut(string(data), " ")
		v, err := strconv.ParseInt(ns, 10, 64)
		if err != nil {
			return procCPU(pid)
		}
		sum += time.Duration(v)
	}
	return sum, nil
}

// cpuSample is the server's CPU time as of at.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads the server's CPU time now, every tick, and once more
// when stop is closed, and then sends the samples, or the first error.
func (s *serverProc) sampleCPU(tick time.Duration, stop <-chan struct{}) <-chan sampled {
	out := make(chan sampled, 1)
	go func() {
		var res sampled
		take := func() {
			at := time.Now()
			cpu, err := s.cpuTime()
			if err != nil && res.err == nil {
				res.err = err
			}
			res.samples = append(res.samples, cpuSample{at, cpu})
		}
		take()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-stop:
				take()
				out <- res
				return
			}
		}
	}()
	return out
}

type sampled struct {
	samples []cpuSample
	err     error
}

// procCPU reads utime+stime of a process from /proc (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the server's VmHWM in MiB.
func (s *serverProc) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for sqlserved")
}

// scrape reads the unlabelled counters of the server's /metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

package main

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The speed gauge measures how fast the server's CPU runs at each moment
// of the closed phase, so the closed-loop figures can be taken at one
// fixed speed of the host.
//
// On a shared host each vCPU slows down and speeds up, by up to half,
// for seconds or minutes at a time, as its physical core's neighbours
// come and go; two vCPUs of one guest do so independently (their speeds
// correlated at 0.05-0.15 over a minute on the 2-vCPU VM this benchmark
// was built on). CPU time is inflated as much as wall time, so no figure
// of the server escapes it. Two unrelated kernels alternated every 50 ms
// on one vCPU, though, tracked each other at r = 0.95 over 1 s (their
// ratio varied by 5% where each varied by 15-19%). So a gauge process on
// the server's CPU runs a fixed piece of work in a short burst every
// gaugePeriod and reports the thread CPU time it took; that time, against
// gaugeNominal, is the host's speed factor for that moment.
//
// The work is the benchmark's own: parsing a fixed Go source with the
// standard library's go/parser and printing it back with go/printer, a
// front end much like the server's parse and render, and nothing of
// sqlspl, so a change to the program under test cannot move the gauge.

const (
	// gaugePeriod is how often the gauge runs a burst: one parse and
	// print of gaugeSource, 1.1 to 2 ms of CPU on the 2-vCPU Xeon VM, so
	// the gauge takes about 3% of the server's CPU in the closed phase. It
	// never runs in the open phase, whose latencies it would disturb.
	gaugePeriod = 50 * time.Millisecond
	// gaugeNominal is the CPU time of one burst at the host speed the
	// closed-loop figures are quoted at: about a burst's time on that VM
	// in its fast state (go1.24.0). It only scales the calibrated
	// figures; any fixed value would compare runs as well.
	gaugeNominal = 1200 * time.Microsecond
	// gaugeWarm bursts run, unreported, before the first measured one.
	gaugeWarm = 3
)

// gaugeSource is the Go source a gauge unit parses: twenty small
// functions, the same bytes in every run.
func gaugeSource() []byte {
	var b strings.Builder
	b.WriteString("package g\n\nimport \"strings\"\n\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, `// f%[1]d folds xs into a score.
func f%[1]d(xs []int, m map[string]int, name string) (int, error) {
	s := %[1]d
	for i, x := range xs {
		switch {
		case x%%%[2]d == 0 && i > %[1]d:
			s += x * %[3]d
		case strings.HasPrefix(name, "k%[1]d"):
			m[name] += s << 2
		default:
			s -= (x + i) / %[3]d
		}
	}
	return s, nil
}

`, i, i%7+2, i+1)
	}
	return []byte(b.String())
}

// gaugeUnit parses src and prints it back, as the server parses a
// statement and renders it.
func gaugeUnit(src []byte) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "g.go", src, parser.ParseComments)
	if err != nil {
		panic(err)
	}
	if err := printer.Fprint(io.Discard, fset, f); err != nil {
		panic(err)
	}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// gauge is the body of a gauge process: a burst every gaugePeriod, one
// line "<unix ns at start> <CPU ns>" per burst on stdout, until its
// parent is gone. Garbage collection runs between bursts, never in one,
// and the burst runs on one locked thread whose CPU clock it reads.
func gauge() {
	runtime.LockOSThread()
	debug.SetGCPercent(-1)
	src := gaugeSource()
	out := bufio.NewWriter(os.Stdout)
	ppid := os.Getppid()
	for k := 0; os.Getppid() == ppid; k++ {
		start := time.Now()
		c0 := threadCPU()
		gaugeUnit(src)
		cost := threadCPU() - c0
		runtime.GC()
		if k >= gaugeWarm {
			fmt.Fprintf(out, "%d %d\n", start.UnixNano(), int64(cost))
			if out.Flush() != nil {
				return
			}
		}
		time.Sleep(time.Until(start.Add(gaugePeriod)))
	}
}

// burst is one gauge reading: the CPU time the fixed work took at at.
type burst struct {
	at   time.Time
	cost time.Duration
}

// gauges are the running gauge processes, one per server CPU.
type gauges struct {
	cmds   []*exec.Cmd
	bursts chan []burst
}

// startGauges starts a gauge on each of the server's CPUs, or one
// unpinned gauge when the run is unpinned.
func startGauges(pl placement) (*gauges, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cpus []string
	if pl.server != "" {
		cpus = strings.Split(pl.server, ",")
	} else {
		cpus = []string{""}
	}
	g := &gauges{bursts: make(chan []burst, len(cpus))}
	for _, cpu := range cpus {
		args := []string{self, "-gauge"}
		if cpu != "" {
			args = append([]string{"taskset", "-c", cpu}, args...)
		}
		cmd := exec.Command(args[0], args[1:]...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			g.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			g.stop()
			return nil, fmt.Errorf("start speed gauge: %w", err)
		}
		g.cmds = append(g.cmds, cmd)
		go func() { g.bursts <- readBursts(stdout) }()
	}
	return g, nil
}

func readBursts(r io.Reader) []burst {
	var bs []burst
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		at, cost, ok := strings.Cut(sc.Text(), " ")
		a, err1 := strconv.ParseInt(at, 10, 64)
		c, err2 := strconv.ParseInt(cost, 10, 64)
		if ok && err1 == nil && err2 == nil {
			bs = append(bs, burst{time.Unix(0, a), time.Duration(c)})
		}
	}
	io.Copy(io.Discard, r)
	return bs
}

// stop kills the gauges, waits for them to exit, and returns their
// readings in time order.
func (g *gauges) stop() []burst {
	var all []burst
	for _, cmd := range g.cmds {
		cmd.Process.Kill()
	}
	for range g.cmds {
		all = append(all, <-g.bursts...)
	}
	for _, cmd := range g.cmds {
		cmd.Wait()
	}
	sortBursts(all)
	return all
}

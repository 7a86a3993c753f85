// Command servebench is the serving benchmark of the sqlspl product line:
// it drives a real sqlserved process over loopback with one of three
// seeded traffic shapes, referees every answer against labels set when
// the input was generated, reconciles its counts with the server's
// /metrics, and prints end-to-end metrics (or, with --trace 1, the
// per-layer split of an in-process traced replay) as one JSON line.
//
//	bash servebench/run.sh --workload gateway-hot --seed 1 --seconds 20 --trace 0
//
// See servebench/README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setupRuns is how many times a run starts sqlserved to time set-up;
// the run reports the median start.
const (
	setupRuns = 9
	settle    = 50 * time.Millisecond
)

// warmup is unmeasured closed-loop traffic before the timed phases: it
// opens the connections and brings the verdict cache and the heap to
// their steady state.
const warmup = time.Second

// cpuTick is the length of the closed phase's windows, or a tenth of a
// shorter phase: the server's CPU time is read at every tick, and
// throughput and CPU per statement are the medians over the windows.
// minWindows is the fewest a run accepts.
const (
	cpuTick    = 500 * time.Millisecond
	minWindows = 8
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "gateway-hot | ide-unique | bulk-stream")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: report the per-layer split of a traced in-process replay")
		bin     = flag.String("server", filepath.Join(".bench_build", "sqlserved"), "sqlserved binary")
		out     = flag.String("out", filepath.Join(".bench_build", "runs"), "directory for logs and span dumps")
		spinner = flag.Bool("spin", false, "internal: run as an idle spinner (see spin.go)")
		gauger  = flag.Bool("gauge", false, "internal: run as a speed gauge (see gauge.go)")
	)
	flag.Parse()
	if *spinner {
		spin()
		return
	}
	if *gauger {
		gauge()
		return
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds time.Duration, traced bool, bin, outDir string, stdout io.Writer) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("sqlserved binary: %w", err)
	}
	pl, err := pin()
	if err != nil {
		return err
	}
	sp, err := startSpinners(&pl)
	if err != nil {
		return err
	}
	defer sp.stop()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(outDir, "sqlserved.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	fmt.Fprintln(stdout, pl)

	// Set-up: exec to first /readyz 200, several times; the last server
	// stays up for the traffic.
	var setups []float64
	var srv *serverProc
	for k := 0; k < setupRuns; k++ {
		s, d, err := startServer(bin, pl, logf)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if k == setupRuns-1 {
			srv = s
			continue
		}
		// sqlserved answers /readyz before it installs its SIGTERM
		// handler, so a SIGTERM at once would kill it without the drain
		// the run checks; the pause is not part of the timed set-up.
		time.Sleep(settle)
		if err := s.stop(); err != nil {
			return err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	c := newClient(srv.base, pl.nproc, w.baselineEvery)
	before, err := scrape(c.http, srv.base)
	if err != nil {
		return err
	}
	seq := &sequence{}
	all, _ := closedLoop(c, w, seed, seq, pl.nproc, warmup)

	measured := &tally{}
	var open *tally
	var openStart time.Time
	closedFor := seconds
	gen0, wall0 := selfCPU(), time.Now()
	if w.openRate > 0 {
		openStart = time.Now()
		open = openLoop(c, w, seed, seq, pl.nproc, w.openRate, openStart, seconds/2)
		measured.merge(open)
		closedFor = seconds - seconds/2
	}
	// The closed phase lasts until its last answer is in. The server's
	// CPU time is sampled through it, cutting it into windows, and the
	// speed gauges run on the server's CPUs.
	g, err := startGauges(pl)
	if err != nil {
		return err
	}
	stopCPU := make(chan struct{})
	tick := min(cpuTick, closedFor/10)
	cpuSamples := srv.sampleCPU(tick, stopCPU)
	closed, closedTook := closedLoop(c, w, seed, seq, pl.nproc, closedFor)
	close(stopCPU)
	bursts := g.stop()
	sampled := <-cpuSamples
	if sampled.err != nil {
		return sampled.err
	}
	wins := closedWindows(sampled.samples, closed.marks, bursts)
	// Per window: the raw and the calibrated rate and CPU per statement.
	// A window in which no answer came in counts, with rate 0.
	var rates, cpuPer, rawRates, rawCPU, speeds []float64
	for _, win := range wins {
		if win.gauge == 0 {
			continue
		}
		rate := float64(win.stmts) / win.d.Seconds()
		rawRates, rates = append(rawRates, rate), append(rates, rate/win.speed())
		speeds = append(speeds, win.speed())
		if win.stmts > 0 {
			cpu := float64(win.cpu) / float64(time.Microsecond) / float64(win.stmts)
			rawCPU, cpuPer = append(rawCPU, cpu), append(cpuPer, cpu*win.speed())
		}
	}
	if len(rates) < minWindows || len(rates) < len(wins)*9/10 {
		return fmt.Errorf("%d of %d closed-phase windows had a gauge reading, want at least %d and 90%%",
			len(rates), len(wins), minWindows)
	}
	ss := sampled.samples
	wholeCPU := ss[len(ss)-1].cpu - ss[0].cpu
	genCPU, genWall := selfCPU()-gen0, time.Since(wall0)
	measured.merge(closed)
	after, err := scrape(c.http, srv.base)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return err
	}
	loop := loopFigures{before: before, after: after}
	if traced {
		var pt *tally
		loop.probes, loop.probeLat, pt = lightLoad(c, w, seed, seq)
		if pt.failed > 0 {
			return fmt.Errorf("light-load probe: %d of %d requests failed", pt.failed, pt.attempted)
		}
		all.nWrong += pt.nWrong
		all.wrong = append(all.wrong, pt.wrong...)
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return err
	}
	all.merge(measured)

	if err := referee(all, pl.nproc); err != nil {
		return err
	}
	recon := reconcile(all, before, after)

	ok := all.nWrong == 0 && len(recon) == 0
	res := result{Correct: ok, Attempted: measured.attempted, Failed: measured.failed}
	// Latency comes from the whole open loop, the p99 without its worst
	// second (see tailLatency). A closed-loop-only workload reports its
	// request times instead, each calibrated by the gauge readings taken
	// while it ran.
	var p50, p99 time.Duration
	var lat []time.Duration
	var latHow string
	if open != nil {
		p99 = tailLatency(open.lat, openStart, seconds/2)
		for _, s := range open.lat {
			lat = append(lat, s.d)
		}
		p50 = quantile(lat, 0.5)
		latHow = fmt.Sprintf("open loop, %d requests", len(lat))
	} else {
		var cal []time.Duration
		for _, s := range closed.lat {
			lat = append(lat, s.d)
			if c := gaugeCost(bursts, s.at.Add(-s.d), s.at); c > 0 {
				cal = append(cal, time.Duration(float64(s.d)*float64(gaugeNominal)/float64(c)))
			}
		}
		if len(cal) < len(lat)/2 {
			return fmt.Errorf("%d of %d closed-loop requests had a gauge reading", len(cal), len(lat))
		}
		p50, p99 = quantile(cal, 0.5), quantile(cal, 0.99)
		latHow = fmt.Sprintf("closed loop, calibrated, %d of %d requests", len(cal), len(lat))
	}
	genCPUs := 1.0
	if pl.generator == "" {
		genCPUs = float64(pl.nproc)
	}
	e2e := map[string]metric{
		"setup_s":                {fquantile(setups, 0.5), "s"},
		"throughput_stmt_s":      {fquantile(rates, 0.5), "stmt/s"},
		"latency_p50_ms":         {ms(p50), "ms"},
		"latency_p99_ms":         {ms(p99), "ms"},
		"server_cpu_us_per_stmt": {fquantile(cpuPer, 0.5), "us"},
		"peak_rss_mb":            {rss, "MB"},
	}
	gen := map[string]metric{
		"ops_failed_frac":    {float64(measured.failed) / float64(max(measured.attempted, 1)), "frac"},
		"loadgen.lag_p99_ms": {ms(quantile(measured.lag, 0.99)), "ms"},
		"loadgen.cpu_frac":   {genCPU.Seconds() / genWall.Seconds() / genCPUs, "frac"},
	}

	printProperties(stdout, w, measured, open, closed)
	fmt.Fprintf(stdout, "phases: closed loop %v to its last answer, %d windows of %v; latency from the %s\n",
		closedTook.Round(time.Millisecond), len(rates), tick, latHow)
	// Raw figures, not bounded: the phases as measured, before any
	// windowing or calibration.
	fmt.Fprintf(stdout, "raw latency (not bounded): p50 %.4f ms, p99 %.4f ms, p99.9 %.4f ms\n",
		ms(quantile(lat, 0.5)), ms(quantile(lat, 0.99)), ms(quantile(lat, 0.999)))
	fmt.Fprintf(stdout, "raw closed phase (not bounded): %.1f stmt/s, server CPU %.4f us/stmt; per window: stmt/s %s; us/stmt %s\n",
		float64(closed.stmts)/closedTook.Seconds(), float64(wholeCPU)/float64(time.Microsecond)/float64(max(closed.stmts, 1)),
		spreadOf(rawRates), spreadOf(rawCPU))
	costs := make([]float64, len(bursts))
	for i, b := range bursts {
		costs[i] = float64(b.cost) / float64(time.Microsecond)
	}
	fmt.Fprintf(stdout, "speed gauge: %d bursts, us each %s; host speed per window (1 = nominal) %s\n",
		len(bursts), spreadOf(costs), spreadOf(speeds))
	fmt.Fprintf(stdout, "set-up starts: %s s\n", spreadOf(setups))
	printMetrics(stdout, "end-to-end", e2e)
	printMetrics(stdout, "generator", gen)
	for _, r := range recon {
		fmt.Fprintln(stdout, "reconciliation FAILED:", r)
	}
	if all.nWrong > 0 {
		fmt.Fprintf(stdout, "referee: %d wrong answers, first:\n", all.nWrong)
		for i, s := range all.wrong {
			if i == 8 {
				break
			}
			fmt.Fprintln(stdout, "  ", s)
		}
	} else {
		fmt.Fprintf(stdout, "referee: %d answers checked (%d by reparse/analysis, %d labels against the baseline parser), all correct\n",
			all.requests, len(all.checks), len(all.sample))
	}

	if traced {
		layers, err := traceRun(w, seed, loop, outDir, stdout)
		if err != nil {
			return err
		}
		layers["loadgen.lag_p99_ms"] = gen["loadgen.lag_p99_ms"]
		layers["loadgen.cpu_frac"] = gen["loadgen.cpu_frac"]
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return fmt.Errorf("%d wrong answers, %d reconciliation failures", all.nWrong, len(recon))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spreadOf prints the minimum, quartiles and maximum of xs.
func spreadOf(xs []float64) string {
	return fmt.Sprintf("min %.4g, q25 %.4g, median %.4g, q75 %.4g, max %.4g",
		fquantile(xs, 0), fquantile(xs, 0.25), fquantile(xs, 0.5), fquantile(xs, 0.75), fquantile(xs, 1))
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reconcile checks the client's counts against the server's /metrics
// deltas over the run. Failed operations may or may not have reached a
// counter, so with failures each check allows that much slack.
func reconcile(t *tally, before, after map[string]float64) []string {
	delta := func(name string) int { return int(after[name] - before[name]) }
	var bad []string
	check := func(what string, got, want int) {
		if got < want || got > want+t.failed {
			bad = append(bad, fmt.Sprintf("%s: server counted %d, client %d", what, got, want))
		}
	}
	check("parse requests", delta("sqlserved_parse_requests_total"), t.byPath["/v1/parse"])
	check("format requests", delta("sqlserved_format_requests_total"), t.byPath["/v1/format"])
	check("stream requests", delta("sqlserved_stream_requests_total"), t.byPath["/v1/stream"])
	check("streamed statements", delta("sqlserved_stream_statements_total"), t.streamed)
	check("verdict-cache hits+misses+coalesced", delta("sqlspl_verdict_cache_hits_total")+
		delta("sqlspl_verdict_cache_misses_total")+delta("sqlspl_verdict_cache_shared_total"), t.lookups)
	check("catalog resolutions", delta("sqlspl_product_cache_hits_total")+
		delta("sqlspl_product_cache_misses_total")+delta("sqlspl_product_cache_shared_total"), t.requests)
	return bad
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printProperties prints what the measured traffic was made of, so a
// claim that a change helps (say) repeated inputs can cite the share.
func printProperties(w io.Writer, wl *workload, t, open, closed *tally) {
	distinct := map[uint64]struct{}{}
	for _, h := range t.hashes {
		distinct[h] = struct{}{}
	}
	n := max(len(t.hashes), 1)
	fmt.Fprintf(w, "workload %s properties:\n", wl.name)
	fmt.Fprintf(w, "  statements %d, distinct %d, repeat share %.4f, broken share %.4f\n",
		len(t.hashes), len(distinct), 1-float64(len(distinct))/float64(n), float64(t.broken)/float64(n))
	fmt.Fprintf(w, "  mean statement bytes %.1f, mean response bytes %.1f\n",
		float64(t.stmtBytes)/float64(n), float64(t.respBytes)/float64(max(t.requests, 1)))
	if open != nil {
		fmt.Fprintf(w, "  open loop: %.0f req/s offered, %d requests\n", wl.openRate, open.attempted)
	}
	fmt.Fprintf(w, "  closed loop: %d requests, %d statements\n", closed.attempted, closed.stmts)
}

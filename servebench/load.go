package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// parseResp is the part of a /v1/parse or /v1/format answer the referee
// reads.
type parseResp struct {
	OK         bool   `json:"ok"`
	SQL        string `json:"sql"`
	Statements []struct {
		Type string `json:"type"`
		SQL  string `json:"sql"`
	} `json:"statements"`
	Analysis []struct {
		Tables []struct {
			Name string `json:"name"`
		} `json:"tables"`
	} `json:"analysis"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error"`
}

// streamLine is one NDJSON line of /v1/stream: a record or the trailer.
type streamLine struct {
	Summary     bool            `json:"summary"`
	Seq         int             `json:"seq"`
	OK          bool            `json:"ok"`
	Bytes       int             `json:"bytes"`
	Diagnostics json.RawMessage `json:"diagnostics"`
	Statements  int             `json:"statements"`
	Accepted    int             `json:"accepted"`
	Rejected    int             `json:"rejected"`
	Error       string          `json:"error"`
}

// deferred is an answer whose check needs a parser; the referee runs
// these after the timed phases so checking never loads the generator.
type deferred struct {
	shape   string
	dialect string
	st      stmt
	resp    parseResp
}

// mark is n statements answered correctly, the last of them at at.
type mark struct {
	at time.Time
	n  int
}

// markEvery is how many stream records one mark covers, so a script's
// statements are counted in the windows they were answered in.
const markEvery = 256

// stamp is a latency (d) and the time it is filed under.
type stamp struct {
	at time.Time
	d  time.Duration
}

// tally accumulates one connection's view of a phase.
type tally struct {
	attempted, failed int
	requests          int // answered 200
	byPath            map[string]int
	stmts             int // statements answered correctly
	broken            int
	lookups           int // verdict-cache lookups the server must have made
	streamed          int // statements sent through /v1/stream
	stmtBytes         int64
	respBytes         int64
	hashes            []uint64
	lat               []stamp // request latencies, stamped when due (open) or done (closed)
	marks             []mark  // correct statements by when their answer was in
	lag               []time.Duration
	checks            []deferred
	sample            []stmt // statements kept for the baseline cross-check
	wrong             []string
	nWrong            int
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.requests += o.requests
	if t.byPath == nil {
		t.byPath = map[string]int{}
	}
	for k, v := range o.byPath {
		t.byPath[k] += v
	}
	t.stmts += o.stmts
	t.broken += o.broken
	t.lookups += o.lookups
	t.streamed += o.streamed
	t.stmtBytes += o.stmtBytes
	t.respBytes += o.respBytes
	t.hashes = append(t.hashes, o.hashes...)
	t.lat = append(t.lat, o.lat...)
	t.marks = append(t.marks, o.marks...)
	t.lag = append(t.lag, o.lag...)
	t.checks = append(t.checks, o.checks...)
	t.sample = append(t.sample, o.sample...)
	t.nWrong += o.nWrong
	t.wrong = append(t.wrong, o.wrong...)
}

func (t *tally) addWrong(format string, args ...any) {
	t.nWrong++
	if len(t.wrong) < 8 {
		t.wrong = append(t.wrong, fmt.Sprintf(format, args...))
	}
}

var hashSeed = maphash.MakeSeed()

// client sends generated requests and referees the answers.
type client struct {
	http        *http.Client
	base        string
	sampleEvery int // keep every n-th statement for the baseline cross-check
	sampled     atomic.Uint64
}

func newClient(base string, conns, sampleEvery int) *client {
	return &client{
		base:        base,
		sampleEvery: sampleEvery,
		http: &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

// do sends one request, checks its answer against the labels, and
// returns when the answer was complete: for a JSON answer, when its last
// byte was read, before the referee decodes it, so the generator's own
// checking is not charged to the server.
func (c *client) do(req request, t *tally) time.Time {
	t.attempted++
	resp, err := c.http.Post(c.base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		t.failed++
		return time.Now()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		t.failed++
		return time.Now()
	}
	for _, s := range req.stmts {
		t.hashes = append(t.hashes, maphash.String(hashSeed, s.text))
		t.stmtBytes += int64(len(s.text))
		if !s.ok {
			t.broken++
		}
		if n := c.sampled.Add(1); int(n)%c.sampleEvery == 0 {
			t.sample = append(t.sample, s)
		}
	}
	var good int
	var n int64
	var done time.Time
	var marks []mark
	if req.shape == shapeStream {
		good, n, marks = refereeStream(req, resp.Body, t)
		done = time.Now()
		t.lookups += len(req.stmts)
		t.streamed += len(req.stmts)
	} else {
		data, err := io.ReadAll(resp.Body)
		done = time.Now()
		if err != nil {
			t.failed++
			return done
		}
		good, n = refereeOne(req, data, t)
		marks = []mark{{done, good}}
		if req.shape == shapeVerdict {
			t.lookups++
		}
	}
	if good < 0 {
		return done
	}
	t.requests++
	if t.byPath == nil {
		t.byPath = map[string]int{}
	}
	p, _, _ := strings.Cut(req.path, "?")
	t.byPath[p]++
	t.respBytes += n
	t.stmts += good
	t.marks = append(t.marks, marks...)
	return done
}

// refereeOne checks a /v1/parse or /v1/format answer: the verdict must
// equal the label; answers whose check needs a parser are deferred.
func refereeOne(req request, data []byte, t *tally) (int, int64) {
	s := req.stmts[0]
	var pr parseResp
	if err := json.Unmarshal(data, &pr); err != nil {
		t.addWrong("request %d: undecodable answer: %v", req.index, err)
		return 0, int64(len(data))
	}
	if pr.OK != s.ok {
		t.addWrong("request %d (%s %s): ok=%v, label %v: %s", req.index, req.dialect, req.shape, pr.OK, s.ok, s.text)
		return 0, int64(len(data))
	}
	if !pr.OK && pr.Error == nil {
		t.addWrong("request %d: rejected without a diagnostic", req.index)
		return 0, int64(len(data))
	}
	if pr.OK && req.shape != shapeVerdict {
		t.checks = append(t.checks, deferred{shape: req.shape, dialect: req.dialect, st: s, resp: pr})
	}
	return 1, int64(len(data))
}

// refereeStream checks a /v1/stream answer: one record per generated
// statement, in order, each verdict equal to its label, and a trailer
// that accounts for every statement. It marks the correct records as
// they arrive, markEvery at a time.
func refereeStream(req request, body io.Reader, t *tally) (int, int64, []mark) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var n int64
	var marks []mark
	good, marked, seq := 0, 0, 0
	var sum *streamLine
	for sc.Scan() {
		n += int64(len(sc.Bytes())) + 1
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.addWrong("stream %d: undecodable line: %v", req.index, err)
			return 0, n, nil
		}
		if l.Summary {
			sum = &l
			continue
		}
		if l.Seq != seq || seq >= len(req.stmts) {
			t.addWrong("stream %d: record seq %d, want %d of %d", req.index, l.Seq, seq, len(req.stmts))
			return 0, n, nil
		}
		s := req.stmts[seq]
		// A record spans the statement, its ';' and the newline before it.
		want := len(s.text) + 1
		if seq > 0 {
			want++
		}
		switch {
		case l.Bytes != want:
			t.addWrong("stream %d: record %d covers %d bytes, statement has %d", req.index, seq, l.Bytes, want)
		case l.OK != s.ok:
			t.addWrong("stream %d: record %d ok=%v, label %v: %s", req.index, seq, l.OK, s.ok, s.text)
		case !l.OK && len(l.Diagnostics) == 0:
			t.addWrong("stream %d: record %d rejected without diagnostics", req.index, seq)
		default:
			good++
		}
		seq++
		if good-marked == markEvery {
			marks = append(marks, mark{time.Now(), markEvery})
			marked = good
		}
	}
	if err := sc.Err(); err != nil {
		t.failed++
		return -1, n, nil
	}
	if good > marked {
		marks = append(marks, mark{time.Now(), good - marked})
	}
	var accepted int
	for _, s := range req.stmts {
		if s.ok {
			accepted++
		}
	}
	switch {
	case sum == nil:
		t.addWrong("stream %d: no trailer", req.index)
	case sum.Error != "" || sum.Statements != len(req.stmts) || seq != len(req.stmts) ||
		sum.Accepted != accepted || sum.Rejected != len(req.stmts)-accepted:
		t.addWrong("stream %d: trailer %+v, generated %d statements (%d accepted), %d records",
			req.index, *sum, len(req.stmts), accepted, seq)
	}
	return good, n, marks
}

// sequence hands out request indices: one counter per run, so no two
// requests of a run share an index.
type sequence struct{ next atomic.Uint64 }

func (s *sequence) take() uint64 { return s.next.Add(1) - 1 }

// closedLoop runs conns connections that each send their next request as
// soon as the previous answer is in, until d has passed, and returns the
// merged tally and how long the phase took until its last answer was in.
// Latencies are stamped when the answer is complete.
func closedLoop(c *client, w *workload, seed uint64, seq *sequence, conns int, d time.Duration) (*tally, time.Duration) {
	// Requests are generated one ahead of the connections, so a long
	// script is ready when its connection is; the wait for it is the
	// generator's lag.
	ready := make(chan request, conns)
	for len(ready) < conns {
		ready <- w.gen(seed, seq.take())
	}
	start := time.Now()
	end := start.Add(d)
	stop := make(chan struct{})
	var genWG sync.WaitGroup
	genWG.Add(1)
	go func() {
		defer genWG.Done()
		defer close(ready)
		for {
			r := w.gen(seed, seq.take())
			select {
			case ready <- r:
			case <-stop:
				return
			}
		}
	}()
	tallies := make([]*tally, conns)
	var wg sync.WaitGroup
	for k := range tallies {
		t := &tally{}
		tallies[k] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				asked := time.Now()
				r := <-ready
				sent := time.Now()
				t.lag = append(t.lag, sent.Sub(asked))
				done := c.do(r, t)
				t.lat = append(t.lat, stamp{at: done, d: done.Sub(sent)})
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	close(stop)
	for range ready {
	}
	genWG.Wait()
	out := &tally{}
	for _, t := range tallies {
		out.merge(t)
	}
	return out, took
}

// openLoop sends requests at a fixed rate for d over conns connections.
// Each request is timed from when it was due, so a stall also charges
// the requests queued behind it; lag is how late the generator itself
// dispatched each request.
func openLoop(c *client, w *workload, seed uint64, seq *sequence, conns int, rate float64, start time.Time, d time.Duration) *tally {
	type job struct {
		r   request
		due time.Time
	}
	n := int(rate * d.Seconds())
	// Sized to the whole phase, so the dispatcher never blocks behind a
	// stalled server and keeps to the schedule.
	queue := make(chan job, n)
	tallies := make([]*tally, conns)
	var wg sync.WaitGroup
	for k := range tallies {
		t := &tally{}
		tallies[k] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				done := c.do(j.r, t)
				t.lat = append(t.lat, stamp{at: j.due, d: done.Sub(j.due)})
			}
		}()
	}
	disp := &tally{}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		r := w.gen(seed, seq.take())
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		disp.lag = append(disp.lag, time.Since(due))
		queue <- job{r, due}
	}
	close(queue)
	wg.Wait()
	for _, t := range tallies {
		disp.merge(t)
	}
	return disp
}

// quantile is the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// fquantile is the nearest-rank q-quantile of xs (sorted in place).
func fquantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// window is one interval between two CPU samples of a closed phase.
type window struct {
	d     time.Duration
	stmts int           // statements answered correctly in it
	cpu   time.Duration // the server's CPU time over it
	gauge time.Duration // median gauge burst in it; 0 if none fell in it
}

// speed is the window's host speed factor: 1 at gaugeNominal, below 1
// when the host ran slower.
func (w window) speed() float64 { return float64(gaugeNominal) / float64(w.gauge) }

func sortBursts(bs []burst) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].at.Before(bs[j].at) })
}

// gaugeCost is the median cost of the bursts (sorted) that started in
// [from, to), or 0 if none did.
func gaugeCost(bs []burst, from, to time.Time) time.Duration {
	i := sort.Search(len(bs), func(i int) bool { return !bs[i].at.Before(from) })
	var cs []time.Duration
	for ; i < len(bs) && bs[i].at.Before(to); i++ {
		cs = append(cs, bs[i].cost)
	}
	return quantile(cs, 0.5)
}

// closedWindows cuts a closed phase at its CPU samples and counts the
// statements answered in each interval. The last interval runs from the
// last tick to the phase's end; it is dropped when shorter than half the
// others, so a short tail never stands for a whole window.
func closedWindows(ss []cpuSample, marks []mark, bs []burst) []window {
	if len(ss) < 2 {
		return nil
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].at.Before(marks[j].at) })
	ws := make([]window, len(ss)-1)
	k := 0
	for _, m := range marks {
		if m.at.Before(ss[0].at) {
			continue
		}
		for k < len(ws) && !m.at.Before(ss[k+1].at) {
			k++
		}
		if k == len(ws) {
			break
		}
		ws[k].stmts += m.n
	}
	for i := range ws {
		ws[i].d = ss[i+1].at.Sub(ss[i].at)
		ws[i].cpu = ss[i+1].cpu - ss[i].cpu
		ws[i].gauge = gaugeCost(bs, ss[i].at, ss[i+1].at)
	}
	if n := len(ws); n > 1 && ws[n-1].d < ws[0].d/2 {
		ws = ws[:n-1]
	}
	return ws
}

// tailLatency is the p99 of an open phase's requests without its worst
// second. The phase is cut into one-second windows by due time, the
// window whose own p99 is highest is left out, and the p99 is taken over
// the rest. A shared host now and then stops a vCPU for a hundred
// milliseconds or more: at 400 req/s a stall of 125 ms queues fifty
// requests, the whole tail beyond the p99 of 5000. In one of three
// gateway-hot runs looked at, 62 of the 113 slowest requests fell within
// one such stall (the largest cluster in the other two held 28 and 5).
// A tail that recurs in two seconds or more still moves the figure.
func tailLatency(ss []stamp, start time.Time, d time.Duration) time.Duration {
	n := max(int(d/time.Second), 1)
	wins := make([][]time.Duration, n)
	for _, s := range ss {
		k := min(max(int(s.at.Sub(start)/time.Second), 0), n-1)
		wins[k] = append(wins[k], s.d)
	}
	worst, worstP99 := -1, time.Duration(-1)
	for k, win := range wins {
		if p := quantile(win, 0.99); len(win) > 0 && p > worstP99 {
			worst, worstP99 = k, p
		}
	}
	var rest []time.Duration
	for k, win := range wins {
		if k != worst || n == 1 {
			rest = append(rest, win...)
		}
	}
	return quantile(rest, 0.99)
}

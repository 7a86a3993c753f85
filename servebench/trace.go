package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"sqlspl/internal/analyze"
	"sqlspl/internal/ast"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/lexer"
	"sqlspl/internal/parser"
	"sqlspl/internal/product"
	"sqlspl/internal/server"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/stream"
)

// The traced run replays a workload's generated requests through an
// in-process server's Handler().ServeHTTP and, after each request,
// replays the public stage calls that make up that request against the
// benchmark's own catalog and verdict cache, so the handler's state is
// never disturbed. Spans are kept in memory and written when the run
// ends. A span's self time is its duration minus its children's.
//
// The stage spans are a model of the handler, not measurements inside
// it: server.unattributed, the handler span minus its replayed stages,
// is what the model leaves over (admission, goroutine and deadline, mux,
// response writing, and the model's own error), and can go negative.
// checkReplay rejects the model when the replayed stages run well over
// the handler span they model.
//
// A sweep then replays, on the workload's statements, the request shapes
// that reach the stages the workload's own requests did not, so every
// layer has a figure on every workload; the table says which source
// each metric came from.

// span is one timed call. Stage spans are replays: their start is when
// the replay ran, and parent links them to the request's handler span.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the handler span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // >1 when per-statement calls are folded into one span
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Replay sizes: enough requests for stable medians in a few seconds.
var replayRequests = map[string]int{"gateway-hot": 12000, "ide-unique": 4000, "bulk-stream": 2}

// sweepStatements caps the statements the layer sweep visits.
const sweepStatements = 4096

type tracer struct {
	epoch time.Time
	spans []span
	req   int
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// timed runs f as a span under parent and returns the span's id.
func (tr *tracer) timed(parent int, name string, f func()) int {
	start := tr.now()
	f()
	return tr.add(parent, name, start, tr.now(), 1)
}

func (tr *tracer) add(parent int, name string, start, end int64, calls int) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Req: tr.req, ID: id, Parent: parent, Name: name, Start: start, End: end, Calls: calls})
	return id
}

// stages resolves products and verdicts for the replayed stage calls,
// apart from the handler's own catalog and cache.
type stages struct {
	cat    *product.Catalog
	vcache *product.VerdictCache
	// NDJSON bytes and records the replayed streams encoded.
	ndjsonBytes, records int
}

func newStages() *stages {
	return &stages{
		cat:    product.NewCatalog(sql2003.MustModel(), sql2003.Registry{}),
		vcache: product.NewVerdictCache(0),
	}
}

// resolve is the server's dialect resolution, step by step:
// dialect.Features, feature.NewConfig, Catalog.Resolve.
func (st *stages) resolve(name string, custom bool) (engine.Engine, *lexer.Lexer) {
	feats := presetFeatures(name)
	opts := core.Options{Product: name}
	if custom {
		opts.Product = "custom"
	}
	prod, eng, err := st.cat.Resolve(feature.NewConfig(feats...), opts)
	if err != nil {
		panic(err) // the presets build; a failure here is a bug
	}
	return eng, prod.Parser.Lexer()
}

func resolveName(custom bool) string {
	if custom {
		return "product.resolve_custom"
	}
	return "product.resolve"
}

// replayStages replays the stage calls of one request under the handler
// span h.
func (st *stages) replayStages(tr *tracer, h int, r request) {
	s := r.stmts[0]
	var eng engine.Engine
	var lx *lexer.Lexer
	if r.shape == shapeStream {
		tr.timed(h, resolveName(false), func() { eng, lx = st.resolve(r.dialect, false) })
		st.replayStream(tr, h, r, eng, lx)
		return
	}
	tr.timed(h, "server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		var err error
		if r.shape == shapeFormat {
			err = dec.Decode(&server.FormatRequest{})
		} else {
			err = dec.Decode(&server.ParseRequest{})
		}
		if err != nil {
			panic(err)
		}
	})
	tr.timed(h, resolveName(r.features), func() { eng, _ = st.resolve(r.dialect, r.features) })
	var resp any
	switch r.shape {
	case shapeVerdict:
		// The server's verdict path: cache lookup, then the response.
		hits := st.vcache.Stats().Hits
		var v *product.Verdict
		start := tr.now()
		v = st.vcache.Verdict(eng, s.text)
		end := tr.now()
		name := "cache.miss"
		if st.vcache.Stats().Hits > hits {
			name = "cache.hit"
		}
		tr.add(h, name, start, end, 1)
		pr := &server.ParseResponse{Dialect: eng.Info().Product, Want: server.WantVerdict, OK: v.OK()}
		if !v.OK() {
			pr.Error = server.EncodeDiagnostic(v.Err)
			pr.Diagnostics = server.EncodeDiagnostics(v.Diags)
		}
		resp = pr
	case shapeFormat:
		o := tr.timed(h, "server.outcome", func() { resp = server.FormatOutcome(eng, s.text, false) })
		replayTree(tr, o, eng, s.text, r.shape)
	default:
		o := tr.timed(h, "server.outcome", func() { resp = server.Outcome(eng, s.text, r.shape) })
		replayTree(tr, o, eng, s.text, r.shape)
	}
	tr.timed(h, "server.encode", func() {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			panic(err)
		}
	})
}

// replayTree replays the calls Outcome and FormatOutcome make, as
// children of the outcome span o.
func replayTree(tr *tracer, o int, eng engine.Engine, sql, shape string) {
	var tree *parser.Tree
	var err error
	tr.timed(o, "engine.parse", func() { tree, err = eng.Parse(sql) })
	if err != nil {
		tr.timed(o, "engine.diagnose", func() { eng.Diagnose(sql) })
		return
	}
	var script *ast.Script
	tr.timed(o, "ast.build", func() { script, err = ast.NewBuilder(nil).Build(tree) })
	if err != nil {
		return
	}
	switch shape {
	case shapeRender:
		tr.timed(o, "ast.render", func() { _ = script.SQL() })
	case shapeAnalysis:
		tr.timed(o, "analyze.script", func() { analyze.Script(script) })
	case shapeAST:
		tr.timed(o, "server.astwire", func() {
			for _, st := range script.Statements {
				server.EncodeStatement(st)
			}
		})
	case shapeFormat:
		tr.timed(o, "ast.format", func() { ast.Format(script) })
	}
}

// replayStream replays /v1/stream's per-statement calls: Scanner.Next,
// the verdict lookup and the NDJSON record encode. Per-statement calls
// are folded into one span per stage.
func (st *stages) replayStream(tr *tracer, h int, r request, eng engine.Engine, lx *lexer.Lexer) {
	sc := stream.NewScanner(lx, bytes.NewReader(r.body), stream.Config{})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var next, hit, miss, encode time.Duration
	var nNext, nHit, nMiss, nEnc int
	for {
		t0 := time.Now()
		s, err := sc.Next()
		next += time.Since(t0)
		nNext++
		if err != nil {
			break
		}
		if len(s.Tokens) == 0 && s.Err == nil {
			continue
		}
		hits := st.vcache.Stats().Hits
		t0 = time.Now()
		v := st.vcache.Verdict(eng, s.Text)
		d := time.Since(t0)
		if st.vcache.Stats().Hits > hits {
			hit, nHit = hit+d, nHit+1
		} else {
			miss, nMiss = miss+d, nMiss+1
		}
		t0 = time.Now()
		rec := server.StreamResult{Seq: nEnc, OK: v.OK(), Off: s.Off, Line: s.Line, Bytes: len(s.Text)}
		if !v.OK() {
			rec.Diagnostics = server.RelocateDiagnostics(v.Diags, server.Position{Off: s.Off, Line: s.Line, Col: s.Col, HasMore: true})
		}
		_ = enc.Encode(rec)
		encode += time.Since(t0)
		nEnc++
		st.ndjsonBytes += buf.Len()
		buf.Reset()
	}
	st.records += nEnc
	// Folded spans are laid end to end from the replay's start.
	at := tr.now()
	for _, f := range []struct {
		name string
		d    time.Duration
		n    int
	}{{"stream.next", next, nNext}, {"cache.hit", hit, nHit}, {"cache.miss", miss, nMiss}, {"server.encode", encode, nEnc}} {
		if f.n > 0 {
			tr.add(h, f.name, at, at+int64(f.d), f.n)
			at += int64(f.d)
		}
	}
}

// lightLoad sends probe requests one at a time with a pause between them
// over loopback, twice, and returns the probes and the second pass's
// client latencies. For bulk-stream a probe is a one-statement script.
func lightLoad(c *client, w *workload, seed uint64, seq *sequence) ([]request, []time.Duration, *tally) {
	const n = 300
	var probes []request
	if w.name == "bulk-stream" {
		script := w.gen(seed, seq.take())
		for _, s := range script.stmts[:n] {
			probes = append(probes, request{index: script.index, shape: shapeStream, dialect: script.dialect,
				path: script.path, body: []byte(s.text + ";\n"), stmts: []stmt{s}})
		}
	} else {
		for i := 0; i < n; i++ {
			probes = append(probes, w.gen(seed, seq.take()))
		}
	}
	t := &tally{}
	lat := make([]time.Duration, 0, n)
	for pass := 0; pass < 2; pass++ {
		for _, r := range probes {
			time.Sleep(time.Millisecond)
			start := time.Now()
			done := c.do(r, t)
			if pass == 1 {
				lat = append(lat, done.Sub(start))
			}
		}
	}
	return probes, lat, t
}

func httpRequest(r request) *http.Request {
	return httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
}

// recorder is an httptest.ResponseRecorder that accepts full duplex,
// which /v1/stream requires of its connection; the recorder already
// holds the whole request body, so there is nothing to interleave.
type recorder struct{ *httptest.ResponseRecorder }

func (recorder) EnableFullDuplex() error { return nil }

func newRecorder() recorder { return recorder{httptest.NewRecorder()} }

// serveAll runs requests through h and returns the mean time per request,
// read from one clock around the loop: the untraced figure.
func serveAll(h http.Handler, reqs []request) time.Duration {
	hrs := make([]*http.Request, len(reqs))
	for i, r := range reqs {
		hrs[i] = httpRequest(r)
	}
	start := time.Now()
	for _, hr := range hrs {
		h.ServeHTTP(newRecorder(), hr)
	}
	return time.Since(start) / time.Duration(len(reqs))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer is the mean number of heap allocations f makes per call over
// n calls.
func allocsPer(n int, f func(i int)) float64 {
	before := mallocs()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(mallocs()-before) / float64(n)
}

func medianUS(ds []time.Duration) float64 {
	return float64(quantile(ds, 0.5)) / float64(time.Microsecond)
}

// traceRun is the --trace 1 part of a run: the traced replay, the layer
// sweep, and the per-layer table. loop carries figures from the loopback
// phases: the /metrics deltas and the light-load probe.
func traceRun(w *workload, seed uint64, loop loopFigures, outDir string, stdout io.Writer) (map[string]metric, error) {
	srv := server.New(server.Config{
		Catalog: product.NewCatalog(sql2003.MustModel(), sql2003.Registry{}),
		Warm:    []dialect.Name{"tinysql", "scql", "core", "warehouse"},
	})
	if err := srv.Warm(); err != nil {
		return nil, err
	}
	srv.MarkReady()
	h := srv.Handler()
	st := newStages()
	fallbacks := engine.HotCounters().DiagFallbacks

	reqs := make([]request, replayRequests[w.name])
	for i := range reqs {
		reqs[i] = w.gen(seed, uint64(i))
	}
	// Custom-selection products are built on first use; build them, and
	// fill the caches, before anything is timed. The replay's verdict
	// cache is filled as the handler's is, so a replayed lookup misses
	// where the handler's does.
	serveAll(h, reqs)
	for _, r := range reqs {
		eng, _ := st.resolve(r.dialect, r.features)
		if r.shape == shapeVerdict {
			st.vcache.Verdict(eng, r.stmts[0].text)
		}
	}

	untracedA := serveAll(h, reqs)
	tr := &tracer{epoch: time.Now()}
	var respBytes int64
	for i, r := range reqs {
		tr.req = i
		hr := httpRequest(r)
		rec := newRecorder()
		hid := tr.timed(-1, "server.handler", func() { h.ServeHTTP(rec, hr) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("traced replay: request %d answered %d", i, rec.Code)
		}
		respBytes += int64(rec.Body.Len())
		st.replayStages(tr, hid, r)
	}
	untracedB := serveAll(h, reqs)
	untraced := (untracedA + untracedB) / 2

	over, nreq, err := checkReplay(tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "replay check: in %d of %d requests the replayed stages exceed the handler span by more than %.0f%%\n",
		over, nreq, 100*replayTolerance)
	stats := selfTimes(tr.spans)
	var handlerTotal time.Duration
	for _, d := range stats["server.handler"] {
		handlerTotal += d
	}
	handlerMean := handlerTotal / time.Duration(len(reqs))
	src := map[string]string{}
	for name := range stats {
		src[name] = "replay"
	}
	sweepFigs := sweep(reqs, stats, src)

	out := map[string]metric{}
	us := func(name, metricName string) {
		if s := stats[name]; len(s) > 0 {
			out[metricName] = metric{medianUS(s), "us"}
		}
	}
	for _, name := range []string{"server.handler", "server.decode", "server.encode", "server.unattributed",
		"server.outcome", "server.astwire", "product.resolve", "product.resolve_custom",
		"cache.hit", "cache.miss", "engine.check", "engine.parse", "engine.diagnose", "lexer.scan",
		"ast.build", "ast.render", "ast.format", "analyze.script", "stream.next"} {
		us(name, name+"_us")
	}
	out["server.response_bytes"] = metric{float64(respBytes) / float64(len(reqs)), "bytes"}
	if reqs[0].shape == shapeStream {
		// The handler's NDJSON, diagnostics and trailer included, and the
		// replay's scan rate over the same scripts.
		var scriptBytes int
		var nextTime time.Duration
		for _, r := range reqs {
			scriptBytes += len(r.body)
		}
		for _, s := range tr.spans {
			if s.Name == "stream.next" {
				nextTime += s.dur()
			}
		}
		sweepFigs["stream.ndjson_bytes_per_stmt"] = metric{float64(respBytes) / float64(len(reqs)*bulkStatements), "bytes"}
		sweepFigs["stream.scan_mb_s"] = metric{float64(scriptBytes) / 1e6 / nextTime.Seconds(), "MB/s"}
		src["stream.ndjson_bytes_per_stmt"], src["stream.scan_mb_s"] = "replay", "replay"
	}
	out["trace.overhead_pct"] = metric{100 * (handlerMean.Seconds() - untraced.Seconds()) / untraced.Seconds(), "%"}
	out["product.build_ms"] = metric{coldBuildMS(), "ms"}
	out["engine.diagnose_fallbacks"] = metric{float64(engine.HotCounters().DiagFallbacks - fallbacks), "count"}
	for _, m := range []map[string]metric{sweepFigs, allocFigures(h, reqs, sweepSet(reqs), st), loop.metrics(h)} {
		for k, v := range m {
			out[k] = v
		}
	}
	if err := writeTrace(w, seed, tr.spans, out, src, outDir, stdout); err != nil {
		return nil, err
	}
	return out, nil
}

// selfTimes folds spans into per-name self-time samples: a span minus
// its children, per call for folded spans. A handler span gives its
// duration as server.handler and its self time as server.unattributed.
func selfTimes(spans []span) map[string][]time.Duration {
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	stats := map[string][]time.Duration{}
	for _, s := range spans {
		self := s.dur() - children[s.ID]
		if s.Name == "server.handler" {
			stats["server.handler"] = append(stats["server.handler"], s.dur())
			stats["server.unattributed"] = append(stats["server.unattributed"], self)
			continue
		}
		stats[s.Name] = append(stats[s.Name], self/time.Duration(max(s.Calls, 1)))
	}
	return stats
}

// replayTolerance is how much longer than its handler span a request's
// replayed stages may take: the replay runs the same calls, so beyond
// timing noise it cannot take longer unless it does work the handler
// does not.
const replayTolerance = 0.5

// checkReplay counts the requests whose replayed stages took longer than
// their handler span by more than replayTolerance of it. The replay is
// rejected as a model of the handler when more than half of them do.
func checkReplay(spans []span) (over, requests int, err error) {
	handler := map[int]time.Duration{}
	stages := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent < 0 {
			handler[s.ID] = s.dur()
		} else if _, direct := handler[s.Parent]; direct {
			stages[s.Parent] += s.dur()
		}
	}
	for id, h := range handler {
		if float64(stages[id]) > float64(h)*(1+replayTolerance) {
			over++
		}
	}
	if 2*over > len(handler) {
		err = fmt.Errorf("replay check: in %d of %d requests the replayed stages exceed the handler span by more than %.0f%%",
			over, len(handler), 100*replayTolerance)
	}
	return over, len(handler), err
}

// sweepStmt is one statement the sweep visits, with its dialect.
type sweepStmt struct {
	stmt
	dialect string
}

func sweepSet(reqs []request) []sweepStmt {
	total := 0
	for _, r := range reqs {
		total += len(r.stmts)
	}
	stride := max((total+sweepStatements-1)/sweepStatements, 1)
	var out []sweepStmt
	k := 0
	for _, r := range reqs {
		for _, s := range r.stmts {
			if k%stride == 0 {
				out = append(out, sweepStmt{s, r.dialect})
			}
			k++
		}
	}
	return out
}

// sweep fills the stages the workload's replay did not reach. On (up to
// 4096 of) the workload's statements it replays, through replayStages,
// every request shape that reaches a missing stage, and times the calls
// no request makes on its own: Check, ScanInto and, where the workload
// sends no feature list, the custom-list resolve. It returns the layer
// rates and sizes that come from the sweep.
func sweep(reqs []request, stats map[string][]time.Duration, src map[string]string) map[string]metric {
	st := newStages()
	set := sweepSet(reqs)
	tr := &tracer{epoch: time.Now()}
	missing := func(name string) bool { return len(stats[name]) == 0 }
	for _, p := range []struct {
		shape  string
		stages []string // reached by this shape alone
		passes int
	}{
		// The verdict shape's first pass fills the cache, the second hits it.
		{shapeVerdict, []string{"cache.hit", "cache.miss"}, 2},
		{shapeRender, []string{"ast.render"}, 1},
		{shapeAnalysis, []string{"analyze.script"}, 1},
		{shapeAST, []string{"server.astwire"}, 1},
		{shapeFormat, []string{"ast.format"}, 1},
	} {
		if !slices.ContainsFunc(p.stages, missing) {
			continue
		}
		for pass := 0; pass < p.passes; pass++ {
			for i, s := range set {
				if p.shape == shapeFormat && !s.tmpl.formattable() {
					continue
				}
				st.replayStages(tr, -1, jsonRequest(uint64(i), p.shape, dialects[s.dialect], false, s.stmt))
			}
		}
	}
	var toks []lexer.Token
	var nToks int
	for _, s := range set {
		eng, lx := st.resolve(s.dialect, false)
		if missing("product.resolve_custom") {
			tr.timed(-1, "product.resolve_custom", func() { st.resolve(s.dialect, true) })
		}
		tr.timed(-1, "lexer.scan", func() { toks, _ = lx.ScanInto(s.text, toks[:0]) })
		nToks += len(toks)
		tr.timed(-1, "engine.check", func() { _ = eng.Check(s.text) })
	}
	// /v1/stream over each dialect's statements joined into one script,
	// unless the workload's own scripts were replayed.
	var scriptBytes int
	if missing("stream.next") {
		byDialect := map[string][]stmt{}
		var order []string
		for _, s := range set {
			if byDialect[s.dialect] == nil {
				order = append(order, s.dialect)
			}
			byDialect[s.dialect] = append(byDialect[s.dialect], s.stmt)
		}
		for i, d := range order {
			r := scriptRequest(uint64(i), dialects[d], byDialect[d])
			scriptBytes += len(r.body)
			st.replayStages(tr, -1, r)
		}
	}
	var scanTime, nextTime time.Duration
	for _, s := range tr.spans {
		switch s.Name {
		case "lexer.scan":
			scanTime += s.dur()
		case "stream.next":
			nextTime += s.dur()
		}
	}
	for name, s := range selfTimes(tr.spans) {
		if missing(name) {
			stats[name] = s
			src[name] = "sweep"
		}
	}
	out := map[string]metric{"lexer.tokens_per_s": {float64(nToks) / scanTime.Seconds(), "tokens/s"}}
	src["lexer.tokens_per_s"] = "sweep"
	if scriptBytes > 0 {
		out["stream.scan_mb_s"] = metric{float64(scriptBytes) / 1e6 / nextTime.Seconds(), "MB/s"}
		out["stream.ndjson_bytes_per_stmt"] = metric{float64(st.ndjsonBytes) / float64(max(st.records, 1)), "bytes"}
		src["stream.scan_mb_s"], src["stream.ndjson_bytes_per_stmt"] = "sweep", "sweep"
	}
	return out
}

// loopFigures carries what the loopback phases measured into the traced
// run: the server's /metrics deltas and the light-load probe.
type loopFigures struct {
	before, after map[string]float64
	probes        []request
	probeLat      []time.Duration
}

func (l loopFigures) delta(name string) float64 { return l.after[name] - l.before[name] }

// metrics derives the loopback layer figures. net.overhead_us is the
// probe's client p50 over loopback minus the same probes' handler p50
// in process (second pass of each, so both see warm caches).
func (l loopFigures) metrics(h http.Handler) map[string]metric {
	ratio := func(prefix string) float64 {
		hits := l.delta(prefix + "_hits_total")
		all := hits + l.delta(prefix+"_misses_total") + l.delta(prefix+"_shared_total")
		if all == 0 {
			return 0
		}
		return hits / all
	}
	var handler []time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, r := range l.probes {
			hr := httpRequest(r)
			start := time.Now()
			h.ServeHTTP(newRecorder(), hr)
			if pass == 1 {
				handler = append(handler, time.Since(start))
			}
		}
	}
	return map[string]metric{
		"product.catalog_hit_ratio": {ratio("sqlspl_product_cache"), "frac"},
		"cache.verdict_hit_ratio":   {ratio("sqlspl_verdict_cache"), "frac"},
		"cache.evictions":           {l.delta("sqlspl_verdict_cache_evictions_total"), "count"},
		"net.overhead_us":           {medianUS(l.probeLat) - medianUS(handler), "us"},
	}
}

// allocFigures counts heap allocations per call of the handler and of the
// stages that allocate most.
func allocFigures(h http.Handler, reqs []request, set []sweepStmt, st *stages) map[string]metric {
	hrs := make([]*http.Request, len(reqs))
	for i, r := range reqs {
		hrs[i] = httpRequest(r)
	}
	out := map[string]metric{
		"server.handler_allocs":  {allocsPer(len(hrs), func(i int) { h.ServeHTTP(newRecorder(), hrs[i]) }), "allocs"},
		"product.resolve_allocs": {allocsPer(len(set), func(i int) { st.resolve(set[i].dialect, false) }), "allocs"},
	}
	engs := make([]engine.Engine, len(set))
	for i, s := range set {
		engs[i], _ = st.resolve(s.dialect, false)
	}
	trees := make([]*parser.Tree, len(set))
	out["engine.parse_allocs"] = metric{allocsPer(len(set), func(i int) { trees[i], _ = engs[i].Parse(set[i].text) }), "allocs"}
	var parsed []*parser.Tree
	for _, t := range trees {
		if t != nil {
			parsed = append(parsed, t)
		}
	}
	out["ast.build_allocs"] = metric{allocsPer(max(len(parsed), 1), func(i int) {
		if i < len(parsed) {
			ast.NewBuilder(nil).Build(parsed[i])
		}
	}), "allocs"}
	return out
}

// coldBuildMS is the mean time of a cold Catalog.Resolve of each preset
// the workloads use, each on a fresh catalog.
func coldBuildMS() float64 {
	var total time.Duration
	for _, name := range roundRobin {
		cat := product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})
		cfg := feature.NewConfig(presetFeatures(name)...)
		start := time.Now()
		if _, _, err := cat.Resolve(cfg, core.Options{Product: name}); err != nil {
			panic(err)
		}
		total += time.Since(start)
	}
	return ms(total) / float64(len(roundRobin))
}

// writeTrace writes the span dump and the per-layer table, and prints
// the table.
func writeTrace(w *workload, seed uint64, spans []span, out map[string]metric, src map[string]string, outDir string, stdout io.Writer) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer (%s, seed %d; spans in %s-spans.jsonl):\n", w.name, seed, base)
	for _, k := range names {
		source := src[strings.TrimSuffix(k, "_us")]
		if source == "" {
			source = "-"
		}
		fmt.Fprintf(&b, "  %-28s %14.4f %-7s %s\n", k, out[k].Value, out[k].Unit, source)
	}
	if err := os.WriteFile(base+"-layers.txt", []byte(b.String()), 0o644); err != nil {
		return err
	}
	_, err = io.WriteString(stdout, b.String())
	return err
}

package main

import (
	"strings"
	"sync"

	"sqlspl/internal/baseline"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/server"
)

// covered reports whether the baseline parser's verdict is an
// independent check of the label: it models the template, and for
// statements it keeps as source text it cannot see a mutation after the
// leading keyword.
func covered(s stmt) bool {
	if !s.tmpl.baseline {
		return false
	}
	return s.ok || s.tmpl.kind != "generic" || s.broken == "misspelled-keyword"
}

// referee runs the checks that need a parser, after the timed phases:
// render and format output must reparse under the same dialect and be a
// fixed point, analysis must name only tables the statement contains
// (and at least one for a typed statement), ast must carry the
// template's statement type, and sampled labels must agree with the
// baseline parser wherever it models the statement.
func referee(t *tally, workers int) error {
	engines := map[string]engine.Engine{}
	for name := range dialects {
		eng, err := dialect.Engine(dialect.Name(name))
		if err != nil {
			return err
		}
		engines[name] = eng
	}
	base, err := baseline.New()
	if err != nil {
		return err
	}
	parts := make([]*tally, workers)
	var wg sync.WaitGroup
	for k := range parts {
		p := &tally{}
		parts[k] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(t.checks); i += workers {
				checkDeferred(&t.checks[i], engines[t.checks[i].dialect], p)
			}
			for i := k; i < len(t.sample); i += workers {
				s := t.sample[i]
				if covered(s) && base.Accepts(s.text) != s.ok {
					p.addWrong("label ok=%v disagrees with the baseline parser: %s", s.ok, s.text)
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		t.nWrong += p.nWrong
		t.wrong = append(t.wrong, p.wrong...)
	}
	return nil
}

func checkDeferred(d *deferred, eng engine.Engine, t *tally) {
	text := d.st.text
	switch d.shape {
	case shapeRender:
		again := server.Outcome(eng, d.resp.SQL, server.WantRender)
		if !again.OK || again.SQL != d.resp.SQL {
			t.addWrong("render of %q is not a fixed point: %q -> %q", text, d.resp.SQL, again.SQL)
		}
	case shapeFormat:
		again := server.FormatOutcome(eng, d.resp.SQL, false)
		if !again.OK || again.SQL != d.resp.SQL {
			t.addWrong("format of %q is not a fixed point: %q -> %q", text, d.resp.SQL, again.SQL)
		}
	case shapeAnalysis:
		lower := strings.ToLower(text)
		named := 0
		for _, a := range d.resp.Analysis {
			for _, tb := range a.Tables {
				if tb.Name == "" {
					continue
				}
				if !strings.Contains(lower, strings.ToLower(tb.Name)) {
					t.addWrong("analysis of %q names table %q it does not contain", text, tb.Name)
				}
				named++
			}
		}
		if named == 0 && d.st.tmpl.kind != "generic" {
			t.addWrong("analysis of %q names no table", text)
		}
	case shapeAST:
		if len(d.resp.Statements) != 1 || d.resp.Statements[0].Type != d.st.tmpl.kind {
			t.addWrong("ast of %q: %d statements, want one %s", text, len(d.resp.Statements), d.st.tmpl.kind)
		} else if !eng.Accepts(d.resp.Statements[0].SQL) {
			t.addWrong("ast of %q carries SQL that does not reparse: %q", text, d.resp.Statements[0].SQL)
		}
	}
}

package main

import (
	"bytes"
	"testing"

	"sqlspl/internal/baseline"
	"sqlspl/internal/dialect"
)

// TestLabelsHold checks every template's label against the dialect's
// serving engine and, where it models the statement, the baseline parser.
func TestLabelsHold(t *testing.T) {
	base := baseline.MustNew()
	for _, d := range dialects {
		eng, err := dialect.Engine(dialect.Name(d.name))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 3000; i++ {
			s := genStmt(7, d, i, 1000+i, 100, false)
			if got := eng.Accepts(s.text); got != s.ok {
				t.Fatalf("%s: engine accepts=%v, label ok=%v (%s): %s", d.name, got, s.ok, s.broken, s.text)
			}
			if covered(s) {
				if got := base.Accepts(s.text); got != s.ok {
					t.Fatalf("%s: baseline accepts=%v, label ok=%v (%s): %s", d.name, got, s.ok, s.broken, s.text)
				}
			}
		}
	}
}

// TestSameSeedSameBytes: inputs are a pure function of the seed.
func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		n := uint64(400)
		if w.name == "bulk-stream" {
			n = 3
		}
		for i := uint64(0); i < n; i++ {
			a, b := w.gen(11, i), w.gen(11, i)
			if a.path != b.path || !bytes.Equal(a.body, b.body) {
				t.Fatalf("%s: request %d differs between two draws of seed 11", w.name, i)
			}
		}
		if bytes.Equal(w.gen(11, 0).body, w.gen(12, 0).body) {
			t.Fatalf("%s: seeds 11 and 12 drew the same first request", w.name)
		}
	}
}

// TestUniqueWorkloadsNeverRepeat: ide-unique and bulk-stream send every
// statement once.
func TestUniqueWorkloadsNeverRepeat(t *testing.T) {
	for _, name := range []string{"ide-unique", "bulk-stream"} {
		w, _ := workloadByName(name)
		seen := map[string]bool{}
		n := uint64(60000)
		if name == "bulk-stream" {
			n = 4
		}
		for i := uint64(0); i < n; i++ {
			for _, s := range w.gen(3, i).stmts {
				if seen[s.text] {
					t.Fatalf("%s: statement repeated: %s", name, s.text)
				}
				seen[s.text] = true
			}
		}
	}
}

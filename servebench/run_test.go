package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"sqlspl/internal/dialect"
	"sqlspl/internal/product"
	"sqlspl/internal/server"
	"sqlspl/internal/sql2003"
)

// TestHeldOutSeedRunsClean drives each workload with a seed no tuning
// run used, over HTTP against an in-process server, and requires every
// answer to pass the referee and the counts to reconcile with /metrics.
func TestHeldOutSeedRunsClean(t *testing.T) {
	const heldOut = 90210
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			srv := server.New(server.Config{
				Catalog: product.NewCatalog(sql2003.MustModel(), sql2003.Registry{}),
				Warm:    []dialect.Name{"tinysql", "scql", "core", "warehouse"},
			})
			if err := srv.Warm(); err != nil {
				t.Fatal(err)
			}
			srv.MarkReady()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			c := newClient(ts.URL, 2, 1)
			before, err := scrape(c.http, ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			d := 300 * time.Millisecond
			seq := &sequence{}
			all := &tally{}
			if w.openRate > 0 {
				open := openLoop(c, w, heldOut, seq, 2, w.openRate/4, time.Now(), d)
				if len(open.lat) != open.attempted {
					t.Errorf("open loop timed %d of %d requests", len(open.lat), open.attempted)
				}
				all.merge(open)
			}
			closed, _ := closedLoop(c, w, heldOut, seq, 2, d)
			all.merge(closed)
			after, err := scrape(c.http, ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			if all.attempted == 0 || all.failed > 0 {
				t.Fatalf("%d of %d operations failed", all.failed, all.attempted)
			}
			if err := referee(all, 2); err != nil {
				t.Fatal(err)
			}
			if all.nWrong > 0 {
				t.Fatalf("%d wrong answers, first: %v", all.nWrong, all.wrong)
			}
			if bad := reconcile(all, before, after); len(bad) > 0 {
				t.Fatalf("reconciliation: %v", bad)
			}
		})
	}
}

// Materialized synopses end to end: build a Bernoulli synopsis, watch the
// planner serve a subsumable sampled query from it via the Prop. 8
// residual rewrite, append rows and see the synopsis maintained in place,
// hit every fallback condition on purpose, A/B the synopsis-served
// estimate against the full-scan plan, and drop the synopsis.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	gus "github.com/sampling-algebra/gus"
)

func main() {
	db := gus.Open()
	if err := db.AttachTPCH(0.05, 42); err != nil { // ~300k lineitems
		log.Fatal(err)
	}
	n, _ := db.TableLen("lineitem")
	fmt.Printf("lineitem: %d rows\n", n)

	// 1. Materialize a 2% Bernoulli sample of lineitem. The build runs the
	// same fused scan→sample pipeline queries use, so the synopsis's GUS
	// claim — Bernoulli(lineitem, 0.02) — is exact, not approximate.
	if err := db.CreateSynopsis(gus.SynopsisSpec{Name: "ls", Table: "lineitem", Rate: 0.02}); err != nil {
		log.Fatal(err)
	}
	info := db.Synopses()[0]
	fmt.Printf("built %s: %s, %d of %d rows (%.0f KiB)\n\n",
		info.Name, info.GUS, info.Rows, info.SourceRows, float64(info.Bytes)/1024)

	// 2. A p=1% query is subsumed by the q=2% synopsis: the planner scans
	// the synopsis and composes a Bernoulli(p/q = 0.5) residual, which by
	// Prop. 8 is exactly Bernoulli(1%) over the base table. EXPLAIN
	// ANALYZE marks the served scan and records the decision span.
	const sql = `SELECT SUM(l_extendedprice*(1.0-l_discount)) FROM lineitem TABLESAMPLE BERNOULLI(1)`
	res, err := db.Query("EXPLAIN ANALYZE "+sql, gus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(res.ExplainText, "\n") {
		if strings.Contains(line, "synopsis") {
			fmt.Println(strings.TrimSpace(line))
		}
	}
	fmt.Println()

	// 3. A/B: the same query with synopsis-serving off runs the full-scan
	// plan. Both are unbiased Bernoulli(1%) estimates of the same total —
	// the synopsis trades nothing for its speedup. (Latencies here are
	// single-shot and small-scale; what is guaranteed is the rows read:
	// the synopsis's ~q·n against the base table's n, which
	// TestSynopsisScanReduction enforces.)
	run := func(opts ...gus.Option) (float64, float64, time.Duration) {
		t0 := time.Now()
		r, err := db.Query(sql, opts...)
		if err != nil {
			log.Fatal(err)
		}
		v := r.Values[0]
		return v.Estimate, v.CIHigh - v.Estimate, time.Since(t0)
	}
	est, half, d := run(gus.WithSeed(7))
	fmt.Printf("synopsis-served: %14.2f ± %13.2f  (%v)\n", est, half, d)
	est, half, d = run(gus.WithSeed(7), gus.WithSynopses(false))
	fmt.Printf("full-scan plan:  %14.2f ± %13.2f  (%v)\n\n", est, half, d)

	// 4. Appends maintain the synopsis: each new row keeps with
	// probability q under the synopsis's own sub-seeded draw — identical
	// membership to a from-scratch rebuild, so the claim stays exact and
	// the synopsis keeps serving without a refresh.
	li, err := db.Table("lineitem")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := li.Insert(int64(900000+i), int64(1), int64(i%200), 1.0, 500.0+float64(i%100), 0.04, 0.02); err != nil {
			log.Fatal(err)
		}
	}
	info = db.Synopses()[0]
	fmt.Printf("after 5000 appends: %d rows covering %d source rows, stale=%v\n\n",
		info.Rows, info.SourceRows, info.Stale)

	// 5. Fallbacks are explicit, never silent degradation. Each miss
	// reason lands in gus_synopsis_misses_total{reason}:
	//   rate   — p=5% exceeds q=2%; Prop. 8 needs p ≤ q.
	//   method — WOR inclusions are negatively correlated, not Bernoulli.
	//   disabled — WithSynopses(false), the A/B switch above.
	if _, err := db.Query(`SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE BERNOULLI(5)`); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Query(`SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (1000 ROWS)`); err != nil {
		log.Fatal(err)
	}
	for _, m := range db.MetricsSnapshot() {
		if strings.HasPrefix(m.Name, "gus_synopsis_") && m.Value > 0 {
			fmt.Printf("%-32s %-10q %g\n", m.Name, m.Label, m.Value)
		}
	}
	fmt.Println()

	// 6. Drop the synopsis; the same query plans a full scan again.
	if err := db.DropSynopsis("ls"); err != nil {
		log.Fatal(err)
	}
	res, err = db.Query("EXPLAIN ANALYZE "+sql, gus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	served := strings.Contains(res.ExplainText, "synopsis=")
	fmt.Printf("after DropSynopsis: served from synopsis = %v\n", served)
}

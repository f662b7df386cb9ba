package gus

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/relation"
)

// synTestDB builds a DB with one table "t" of n rows: id i carries
// v = i (int) and w = float(i).
func synTestDB(t testing.TB, n int) (*DB, *Table) {
	t.Helper()
	db := Open()
	tb, err := db.CreateTable("t", Column{"v", Int}, Column{"w", Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tb.InsertWithID(uint64(i), i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tb
}

func metricValue(db *DB, name, label string) float64 {
	for _, m := range db.MetricsSnapshot() {
		if m.Name == name && m.Label == label {
			return m.Value
		}
	}
	return 0
}

// TestSynopsisCoordinatedBitIdentity: a REPEATABLE query whose derived
// seed matches the synopsis's is served by the NESTED residual — the
// deterministic rate-p subset of the synopsis — and must return results
// bit-identical to the full-scan plan, with and without WithSynopses.
func TestSynopsisCoordinatedBitIdentity(t *testing.T) {
	db, _ := synTestDB(t, 20000)
	const sql = `SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(2) REPEATABLE(7)`
	base, err := db.Query(sql, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Query method seed = uint64(7) ^ WithSeed(1) = 6.
	if err := db.CreateSynopsis(SynopsisSpec{Name: "t_10pct", Table: "t", Rate: 0.10, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	served, err := db.Query(sql, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if metricValue(db, "gus_synopsis_hits_total", "") != 1 {
		t.Fatalf("expected exactly one synopsis hit, metrics: hits=%v", metricValue(db, "gus_synopsis_hits_total", ""))
	}
	off, err := db.Query(sql, WithSeed(1), WithSynopses(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Result{{base, served}, {off, served}} {
		a, b := pair[0].Values[0], pair[1].Values[0]
		if a.Estimate != b.Estimate || a.StdErr != b.StdErr || a.CILow != b.CILow || a.CIHigh != b.CIHigh {
			t.Fatalf("synopsis-served result differs from full scan:\nfull:    %+v\nserved:  %+v", a, b)
		}
		if pair[0].SampleRows != pair[1].SampleRows {
			t.Fatalf("sample sizes differ: %d vs %d", pair[0].SampleRows, pair[1].SampleRows)
		}
	}
	if served.GUSText != base.GUSText {
		t.Fatalf("top GUS changed under rewrite: %q vs %q", served.GUSText, base.GUSText)
	}
	if !strings.Contains(served.PlanText, "scan synopsis t_10pct as t") {
		t.Fatalf("plan does not show the synopsis scan:\n%s", served.PlanText)
	}
	if metricValue(db, "gus_synopsis_misses_total", "disabled") != 1 {
		t.Fatal("WithSynopses(false) did not record a disabled miss")
	}
}

// TestSynopsisScanReduction: serving BERNOULLI(1) from a Bernoulli(2%)
// synopsis reads exactly the synopsis's rows (≈ q·n) where the full-scan
// plan reads all n — the scan reduction as a row count, not a timing.
func TestSynopsisScanReduction(t *testing.T) {
	const n, q = 50000, 0.02
	db, _ := synTestDB(t, n)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn", Table: "t", Rate: q, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	synRows := db.Synopses()[0].Rows
	if sigma := math.Sqrt(n * q * (1 - q)); math.Abs(float64(synRows)-n*q) > 5*sigma {
		t.Fatalf("synopsis holds %d rows, want q·n = %.0f within 5σ = %.0f", synRows, n*q, 5*sigma)
	}
	const sql = `SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(1)`
	for _, leg := range []struct {
		name string
		opts []Option
		want int
	}{
		{"synopsis-served", []Option{WithSeed(1)}, synRows},
		{"full scan", []Option{WithSeed(1), WithSynopses(false)}, n},
	} {
		before := metricValue(db, "gus_rows_scanned_total", "")
		if _, err := db.Query(sql, leg.opts...); err != nil {
			t.Fatal(err)
		}
		if got := metricValue(db, "gus_rows_scanned_total", "") - before; got != float64(leg.want) {
			t.Fatalf("%s: gus_rows_scanned_total advanced by %v, want %d", leg.name, got, leg.want)
		}
	}
}

// TestSynopsisFreshResidualUnbiased: a plain BERNOULLI(p) query over a
// uniform synopsis draws a FRESH residual — different seeds, different
// realizations — and its estimates must stay centered on the truth.
func TestSynopsisFreshResidualUnbiased(t *testing.T) {
	db, _ := synTestDB(t, 20000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn", Table: "t", Rate: 0.2}); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5)`
	exact, err := db.Exact(sql)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Values[0].Value
	var sum float64
	distinct := map[float64]bool{}
	const trials = 40
	covered := 0
	for i := 0; i < trials; i++ {
		res, err := db.Query(sql, WithSeed(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		v := res.Values[0]
		sum += v.Estimate
		distinct[v.Estimate] = true
		if v.CILow <= truth && truth <= v.CIHigh {
			covered++
		}
	}
	if len(distinct) < trials/2 {
		t.Fatalf("fresh residual produced only %d distinct estimates in %d seeded trials (frozen realization?)", len(distinct), trials)
	}
	mean := sum / trials
	if rel := math.Abs(mean-truth) / truth; rel > 0.05 {
		t.Fatalf("mean of %d synopsis-served estimates off truth by %.1f%% (mean %v, truth %v)", trials, 100*rel, mean, truth)
	}
	if covered < trials*8/10 {
		t.Fatalf("95%% CIs covered truth only %d/%d times", covered, trials)
	}
	if hits := metricValue(db, "gus_synopsis_hits_total", ""); hits != trials {
		t.Fatalf("hits = %v, want %d", hits, trials)
	}
}

// TestSynopsisMissReasons pins the fallback taxonomy: WOR and SYSTEM
// sampling, rates above the synopsis's, mismatched REPEATABLE seeds and
// stale synopses all fall back to the full scan with the right counter.
func TestSynopsisMissReasons(t *testing.T) {
	db, _ := synTestDB(t, 5000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn", Table: "t", Rate: 0.10, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	exact, err := db.Exact(`SELECT SUM(w) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Values[0].Value
	cases := []struct {
		sql    string
		reason string
	}{
		{`SELECT SUM(w) FROM t TABLESAMPLE (1000 ROWS)`, "method"},
		{`SELECT SUM(w) FROM t TABLESAMPLE SYSTEM(10)`, "method"},
		{`SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(50)`, "rate"},
		{`SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5) REPEATABLE(9)`, "seed"},
	}
	for _, tc := range cases {
		before := metricValue(db, "gus_synopsis_misses_total", tc.reason)
		res, err := db.Query(tc.sql, WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if after := metricValue(db, "gus_synopsis_misses_total", tc.reason); after != before+1 {
			t.Errorf("%s: miss{%s} went %v -> %v, want +1", tc.sql, tc.reason, before, after)
		}
		if strings.Contains(res.PlanText, "synopsis") {
			t.Errorf("%s: plan still reads the synopsis:\n%s", tc.sql, res.PlanText)
		}
		v := res.Values[0]
		if rel := math.Abs(v.Estimate-truth) / truth; rel > 0.5 {
			t.Errorf("%s: fallback estimate off truth by %.0f%%", tc.sql, 100*rel)
		}
	}
	if hits := metricValue(db, "gus_synopsis_hits_total", ""); hits != 0 {
		t.Fatalf("no query should have hit, got %v", hits)
	}

	// Stale: an out-of-band append (directly to the relation, bypassing
	// Table.Insert's maintenance hook) must stop the synopsis serving.
	db.mu.Lock()
	rel := db.tables["t"]
	db.mu.Unlock()
	if err := rel.AppendWithID(999999, relation.Tuple{relation.Int(1), relation.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5)`, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(db, "gus_synopsis_misses_total", "stale"); v != 1 {
		t.Fatalf("stale miss = %v, want 1", v)
	}
	// RefreshSynopsis repairs it.
	if err := db.RefreshSynopsis("syn"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5)`, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(db, "gus_synopsis_hits_total", ""); hits != 1 {
		t.Fatalf("refreshed synopsis did not serve: hits = %v", hits)
	}
}

// TestSynopsisMaintainedOnInsert: rows appended through Table.Insert are
// folded into the synopsis at the coordinated rate, so the synopsis keeps
// serving afterwards and its contents equal a from-scratch rebuild.
func TestSynopsisMaintainedOnInsert(t *testing.T) {
	db, tb := synTestDB(t, 4000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn", Table: "t", Rate: 0.25}); err != nil {
		t.Fatal(err)
	}
	rowsBefore := db.Synopses()[0].Rows
	for i := 4000; i < 8000; i++ {
		if err := tb.InsertWithID(uint64(i), i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	info := db.Synopses()[0]
	if info.Stale {
		t.Fatal("maintained synopsis reported stale after Table.Insert appends")
	}
	if info.SourceRows != 8000 {
		t.Fatalf("SourceRows = %d, want 8000", info.SourceRows)
	}
	// The appended tail must be sampled at the synopsis rate, not kept
	// wholesale or dropped: expect ~25% of 4000 new rows.
	grown := info.Rows - rowsBefore
	if grown < 800 || grown > 1200 {
		t.Fatalf("tail sampling added %d of 4000 rows at rate 0.25", grown)
	}
	// And the maintained synopsis equals a rebuild: same membership rule.
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn2", Table: "t", Rate: 0.25}); err != nil {
		t.Fatal(err)
	}
	infos := db.Synopses()
	if infos[0].Rows != infos[1].Rows {
		t.Fatalf("maintained (%d rows) and rebuilt (%d rows) synopses disagree", infos[0].Rows, infos[1].Rows)
	}
	if _, err := db.Query(`SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(10)`); err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(db, "gus_synopsis_hits_total", ""); hits != 1 {
		t.Fatalf("maintained synopsis did not serve: hits = %v", hits)
	}
}

// TestSynopsisExplainAnnotation: EXPLAIN ANALYZE marks the served scan.
func TestSynopsisExplainAnnotation(t *testing.T) {
	db, _ := synTestDB(t, 5000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "tsyn", Table: "t", Rate: 0.2}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`EXPLAIN ANALYZE SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.ExplainText, "synopsis=tsyn") {
		t.Fatalf("EXPLAIN ANALYZE lacks synopsis annotation:\n%s", res.ExplainText)
	}
	if !strings.Contains(res.ExplainText, "synopsis") {
		t.Fatalf("no synopsis decision span:\n%s", res.ExplainText)
	}
}

// TestSynopsisPersistenceRoundTrip: Save + SaveSynopses, reopen from disk,
// LoadSynopses; the loaded synopsis passes integrity, catches up over rows
// appended after the save, and serves queries bit-identically.
func TestSynopsisPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, _ := synTestDB(t, 10000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn", Table: "t", Rate: 0.15, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5) REPEATABLE(7)`
	want, err := db.Query(sql, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSynopses(dir); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.LoadSynopses(dir); err != nil {
		t.Fatal(err)
	}
	infos := db2.Synopses()
	if len(infos) != 1 || infos[0].Name != "syn" || infos[0].Stale {
		t.Fatalf("loaded synopses: %+v", infos)
	}
	got, err := db2.Query(sql, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[0].Estimate != want.Values[0].Estimate || got.Values[0].StdErr != want.Values[0].StdErr {
		t.Fatalf("loaded synopsis serves different result: %+v vs %+v", got.Values[0], want.Values[0])
	}
	if metricValue(db2, "gus_synopsis_hits_total", "") != 1 {
		t.Fatal("loaded synopsis did not serve the query")
	}
	// Appends after load keep it maintained (segment base + resident tail).
	tb, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 10000; i < 11000; i++ {
		if err := tb.InsertWithID(uint64(i), i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if info := db2.Synopses()[0]; info.Stale || info.SourceRows != 11000 {
		t.Fatalf("synopsis not maintained after load: %+v", info)
	}
}

// TestSynopsisTablesListing: db.Tables() attaches synopsis descriptions
// to their source table.
func TestSynopsisTablesListing(t *testing.T) {
	db, _ := synTestDB(t, 1000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "a", Table: "t", Rate: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSynopsis(SynopsisSpec{Name: "b", Table: "t", Rate: 0.5, StratifyBy: "v", Rates: map[string]float64{"1": 0.9}}); err != nil {
		t.Fatal(err)
	}
	tabs := db.Tables()
	if len(tabs) != 1 {
		t.Fatalf("tables: %+v", tabs)
	}
	syns := tabs[0].Synopses
	if len(syns) != 2 || syns[0].Name != "a" || syns[1].Name != "b" {
		t.Fatalf("synopses on t: %+v", syns)
	}
	if syns[0].GUS != "Bernoulli(t, 0.1)" {
		t.Fatalf("GUS rendering: %q", syns[0].GUS)
	}
	if syns[1].MinRate != 0.5 || syns[1].StratifyBy != "v" {
		t.Fatalf("stratified info: %+v", syns[1])
	}
	if syns[0].Bytes <= 0 || syns[0].Rows <= 0 {
		t.Fatalf("missing size info: %+v", syns[0])
	}
	if err := db.DropSynopsis("a"); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Tables()[0].Synopses); got != 1 {
		t.Fatalf("after drop: %d synopses", got)
	}
	if err := db.DropSynopsis("a"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

// TestSynopsisProgressive: progressive streams run their waves over the
// synopsis and still converge to a sound estimate.
func TestSynopsisProgressive(t *testing.T) {
	db, _ := synTestDB(t, 20000)
	if err := db.CreateSynopsis(SynopsisSpec{Name: "syn", Table: "t", Rate: 0.2}); err != nil {
		t.Fatal(err)
	}
	exact, err := db.Exact(`SELECT SUM(w) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Values[0].Value
	ch, wait := db.QueryProgressive(context.Background(), `SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(10)`, WithSeed(3))
	var last *Update
	for u := range ch {
		u := u
		last = &u
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no progressive updates")
	}
	if hits := metricValue(db, "gus_synopsis_hits_total", ""); hits != 1 {
		t.Fatalf("progressive did not hit the synopsis: %v", hits)
	}
	v := last.Values[0]
	if rel := math.Abs(v.Estimate-truth) / truth; rel > 0.25 {
		t.Fatalf("progressive estimate off truth by %.0f%% (est %v, truth %v)", 100*rel, v.Estimate, truth)
	}
}

// TestSynopsisStratifiedServesNested: a stratified synopsis serves plain
// Bernoulli queries through the conservative min-rate nested residual and
// the estimate stays sound.
func TestSynopsisStratifiedServesNested(t *testing.T) {
	db := Open()
	tb, err := db.CreateTable("t", Column{"grp", String}, Column{"w", Float})
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"x", "y"}
	for i := 0; i < 10000; i++ {
		if err := tb.InsertWithID(uint64(i), groups[i%2], float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateSynopsis(SynopsisSpec{
		Name: "syn", Table: "t", Rate: 0.1,
		StratifyBy: "grp", Rates: map[string]float64{"x": 0.4},
	}); err != nil {
		t.Fatal(err)
	}
	exact, err := db.Exact(`SELECT SUM(w) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Values[0].Value
	res, err := db.Query(`SELECT SUM(w) FROM t TABLESAMPLE BERNOULLI(5)`, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if metricValue(db, "gus_synopsis_hits_total", "") != 1 {
		t.Fatal("stratified synopsis did not serve")
	}
	v := res.Values[0]
	if v.CILow > truth || truth > v.CIHigh {
		// A single 95% CI can miss; require only sanity here, the
		// calibration bench measures coverage properly.
		if rel := math.Abs(v.Estimate-truth) / truth; rel > 0.25 {
			t.Fatalf("stratified-served estimate far off truth: est %v truth %v", v.Estimate, truth)
		}
	}
}

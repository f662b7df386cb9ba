package gus

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// TestSkewRateCalibration sweeps the empirical coverage of the claimed 95%
// CI for a sampled SUM over data skew (uniform, lognormal σ=1, lognormal
// σ=3; 30 000 rows) × Bernoulli rate {1, 5, 20}%, 200 seeded trials per
// cell. Every trial goes through ObserveAccuracy — the shadow auditor's
// path — and coverage with its Wilson interval is read back from
// AccuracySnapshot. Uniform and moderate cells must keep 0.95 inside the
// Wilson interval. Heavy-tailed cells undercover (120/138/144 of 200 at
// seed 42): each must be nominal or modally graded C/D, so the answer at
// least flags what the interval gets wrong.
func TestSkewRateCalibration(t *testing.T) {
	const rows, trials, seed, nominal = 30000, 200, 42, 0.95
	for _, sk := range []struct {
		name  string
		sigma float64
	}{{"uniform", 0}, {"moderate", 1}, {"heavy", 3}} {
		db := Open()
		tb, err := db.CreateTable("cal", Column{"v", Float})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + int64(sk.sigma*1000)))
		for i := 0; i < rows; i++ {
			v := 1 + rng.Float64()
			if sk.sigma > 0 {
				v = math.Exp(sk.sigma * rng.NormFloat64())
			}
			if err := tb.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		exact, err := db.Exact(`SELECT SUM(v) FROM cal`)
		if err != nil {
			t.Fatal(err)
		}
		truth := exact.Values[0].Estimate
		for _, rate := range []int{1, 5, 20} {
			sql := fmt.Sprintf(`SELECT SUM(v) FROM cal TABLESAMPLE BERNOULLI(%d)`, rate)
			grades := map[string]int{}
			for i := 1; i <= trials; i++ {
				res, err := db.Query(sql, WithSeed(uint64(i)), WithTrace(&Trace{}))
				if err != nil {
					t.Fatal(err)
				}
				v := res.Values[0]
				grades[v.Reliability]++
				db.ObserveAccuracy(sql, v.Estimate, v.CILow, v.CIHigh, truth, v.Reliability)
			}
			// The modal grade, the worse letter on ties.
			modal, n := "", 0
			for _, g := range []string{"A", "B", "C", "D"} {
				if grades[g] > 0 && grades[g] >= n {
					modal, n = g, grades[g]
				}
			}
			var s ShapeAccuracy
			for _, s = range db.AccuracySnapshot().Shapes {
				if s.Shape == sql {
					break
				}
			}
			t.Logf("%-8s rate %2d%%  coverage %3d/%d  Wilson [%.3f, %.3f]  grade %s",
				sk.name, rate, s.Covered, trials, s.CoverageLow, s.CoverageHigh, modal)
			covers := s.CoverageLow <= nominal && nominal <= s.CoverageHigh
			switch {
			case s.Shape != sql || s.Observations != trials:
				t.Fatalf("%s %d%%: snapshot has no %d-trial entry for %q", sk.name, rate, trials, sql)
			case sk.name != "heavy" && !covers:
				t.Errorf("%s %d%%: Wilson [%.3f, %.3f] excludes %.2f", sk.name, rate, s.CoverageLow, s.CoverageHigh, nominal)
			case !covers && modal != "C" && modal != "D":
				t.Errorf("%s %d%%: miscalibrated (Wilson [%.3f, %.3f]) but modally graded %s, want C or D",
					sk.name, rate, s.CoverageLow, s.CoverageHigh, modal)
			}
		}
	}
}

// TestAuditorEndToEnd drives the shadow auditor deterministically against
// a real DB: a hot sampled shape is replayed many times and the recorded
// coverage must be consistent with the nominal 95% level.
func TestAuditorEndToEnd(t *testing.T) {
	db := obsTestDB(t)
	if _, err := db.Query(obsPointSQL, WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	a := db.newAuditor(AuditorOptions{Seed: 9, MaxFractionPerMinute: 1e9})
	const audits = 40
	for i := 0; i < audits; i++ {
		if got := a.AuditOnce(context.Background()); got != "ok" {
			t.Fatalf("audit %d = %q, want ok", i, got)
		}
	}
	if st := a.Stats(); st.Audits != audits || st.Observations != audits || st.RowsScanned == 0 {
		t.Fatalf("auditor stats = %+v", st)
	}

	rep := db.AccuracySnapshot()
	if rep.Observations != audits {
		t.Fatalf("Observations = %d, want %d", rep.Observations, audits)
	}
	// 95% CIs on uniform-ish data: essentially all intervals cover, and
	// the Wilson interval must not exclude the nominal level from above
	// (that would mean systematic under-coverage).
	if rep.Covered < 30 {
		t.Fatalf("only %d/%d intervals covered the truth", rep.Covered, audits)
	}
	if rep.CoverageHigh < 0.95 {
		t.Fatalf("Wilson interval [%v, %v] excludes the nominal 0.95 from above",
			rep.CoverageLow, rep.CoverageHigh)
	}
	wantShape := sqlparse.Normalize(obsPointSQL)
	if len(rep.Shapes) != 1 || rep.Shapes[0].Shape != wantShape {
		t.Fatalf("shapes = %+v, want one entry for %q", rep.Shapes, wantShape)
	}
	if s := rep.Shapes[0]; s.MeanClaimedHalfWidth <= 0 || s.Window != audits {
		t.Fatalf("shape summary = %+v", s)
	}

	// The audit metrics must reflect the runs.
	var okRuns, ratio, recorded float64
	for _, m := range db.MetricsSnapshot() {
		switch {
		case m.Name == "gus_audit_runs_total" && m.Label == "ok":
			okRuns = m.Value
		case m.Name == "gus_ci_coverage_ratio":
			ratio = m.Value
		case m.Name == "gus_audit_observations_total":
			recorded = m.Value
		}
	}
	if okRuns != audits || recorded != audits {
		t.Fatalf("audit metrics: ok=%v recorded=%v, want %d", okRuns, recorded, audits)
	}
	if ratio != rep.CoverageRate {
		t.Fatalf("gus_ci_coverage_ratio = %v, snapshot rate = %v", ratio, rep.CoverageRate)
	}
}

// TestAuditorSkipsUnreplayable: parameterized and GROUP BY shapes in the
// registry are skipped, never audited or failed.
func TestAuditorSkipsUnreplayable(t *testing.T) {
	db := obsTestDB(t)
	if _, err := db.Prepare(`SELECT SUM(v) FROM fact TABLESAMPLE BERNOULLI(30) WHERE v > ?`); err != nil {
		t.Fatal(err)
	}
	a := db.newAuditor(AuditorOptions{Seed: 1, MaxFractionPerMinute: 1e9})
	if got := a.AuditOnce(context.Background()); got != "skipped" {
		t.Fatalf("parameterized shape: AuditOnce = %q, want skipped", got)
	}

	db2 := obsTestDB(t)
	if _, err := db2.Query(obsGroupSQL, WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	a2 := db2.newAuditor(AuditorOptions{Seed: 1, MaxFractionPerMinute: 1e9})
	if got := a2.AuditOnce(context.Background()); got != "skipped" {
		t.Fatalf("GROUP BY shape: AuditOnce = %q, want skipped", got)
	}
	if rep := db2.AccuracySnapshot(); rep.Observations != 0 || rep.Auditor != nil {
		t.Fatalf("skipped audits must record nothing: %+v", rep)
	}
}

// TestAuditorSoakShort exercises the real background loop end-to-end —
// EnableAuditor through observation recording to DisableAuditor — fast
// enough for -short CI runs.
func TestAuditorSoakShort(t *testing.T) {
	db := obsTestDB(t)
	if _, err := db.Query(obsPointSQL, WithSeed(4)); err != nil {
		t.Fatal(err)
	}
	opts := AuditorOptions{Interval: 2 * time.Millisecond, MaxFractionPerMinute: 1e9, Seed: 7}
	if err := db.EnableAuditor(opts); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableAuditor(opts); err == nil {
		t.Fatal("second EnableAuditor succeeded, want error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := db.AccuracySnapshot()
		if rep.Auditor != nil && rep.Auditor.Audits >= 3 && rep.Observations >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auditor made no progress: %+v", rep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	db.DisableAuditor()
	frozen := db.AccuracySnapshot().Auditor.Audits
	time.Sleep(20 * time.Millisecond)
	if got := db.AccuracySnapshot().Auditor.Audits; got != frozen {
		t.Fatalf("auditor still running after DisableAuditor: %d -> %d audits", frozen, got)
	}
	db.DisableAuditor() // idempotent

	// Close stops a re-enabled auditor on its own.
	if err := db.EnableAuditor(opts); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShapeMetricsChurnBound hammers the per-shape metric registry with
// far more distinct statement shapes than its cap, concurrently (run
// under -race): the map must stay bounded with the excess folding into
// the "other" slot, and no query may fail because of the bound.
func TestShapeMetricsChurnBound(t *testing.T) {
	db := Open()
	tb, err := db.CreateTable("s", Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tb.Insert(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	const workers, perWorker = 8, 50 // 400 distinct shapes > maxShapeSlots
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sql := fmt.Sprintf("SELECT SUM(v) FROM s WHERE v > %d.5", w*perWorker+i)
				if _, err := db.Query(sql); err != nil {
					errs <- fmt.Errorf("%s: %w", sql, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	db.metrics.mu.Lock()
	tracked, overflow := len(db.metrics.shapes), db.metrics.overflow
	db.metrics.mu.Unlock()
	if tracked > maxShapeSlots {
		t.Fatalf("tracked %d shapes, cap %d", tracked, maxShapeSlots)
	}
	if overflow == nil || overflow.queries.Value() == 0 {
		t.Fatal("overflow shapes did not land in the \"other\" slot")
	}
	series, total := 0, uint64(0)
	for _, m := range db.MetricsSnapshot() {
		if m.Name == "gus_shape_queries_total" {
			series++
			total += uint64(m.Value)
		}
	}
	if series > maxShapeSlots+1 {
		t.Fatalf("%d gus_shape_queries_total series, want ≤ %d", series, maxShapeSlots+1)
	}
	if total != workers*perWorker {
		t.Fatalf("shape query counts sum to %d, want %d (no query lost to the bound)", total, workers*perWorker)
	}
}

// TestQueryReliabilitySurfaced: traced queries carry the CI-reliability
// grade on every Value, EXPLAIN ANALYZE renders it, the delta-method AVG
// is capped below A — and none of it perturbs results (including after
// shadow audits ran on the same DB).
func TestQueryReliabilitySurfaced(t *testing.T) {
	db := obsTestDB(t)
	plain, err := db.Query(obsPointSQL, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Values[0].Reliability != "" {
		t.Fatalf("untraced query has Reliability %q, want empty (diagnostics are trace-gated)", plain.Values[0].Reliability)
	}
	tr := &Trace{}
	traced, err := db.Query(obsPointSQL, WithSeed(3), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "traced-vs-plain", traced, plain)
	v := traced.Values[0]
	if v.Reliability < "A" || v.Reliability > "D" || len(v.Reliability) != 1 {
		t.Fatalf("Reliability = %q, want A–D", v.Reliability)
	}
	if v.VarianceRSE < 0 {
		t.Fatalf("VarianceRSE = %v", v.VarianceRSE)
	}
	if txt := tr.Format(); !strings.Contains(txt, "reliability="+v.Reliability) {
		t.Fatalf("trace does not mention the reliability grade:\n%s", txt)
	}

	// Delta-method AVG: first-order variance caps the grade below A.
	avg, err := db.Query(`SELECT AVG(v) FROM fact TABLESAMPLE BERNOULLI(30)`,
		WithSeed(3), WithTrace(&Trace{}))
	if err != nil {
		t.Fatal(err)
	}
	if g := avg.Values[0].Reliability; g == "" || g == "A" {
		t.Fatalf("AVG reliability = %q, want B–D (delta-method cap)", g)
	}

	// EXPLAIN ANALYZE renders the grade without any caller-attached trace.
	ex, err := db.Query("EXPLAIN ANALYZE "+obsPointSQL, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.ExplainText, "reliability=") {
		t.Fatalf("EXPLAIN ANALYZE output lacks reliability annotation:\n%s", ex.ExplainText)
	}

	// Shadow audits on the same DB must not perturb later queries.
	a := db.newAuditor(AuditorOptions{Seed: 5, MaxFractionPerMinute: 1e9})
	for i := 0; i < 3; i++ {
		a.AuditOnce(context.Background())
	}
	again, err := db.Query(obsPointSQL, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "post-audit", again, plain)
}

// TestProgressiveReliability: every progressive wave carries a grade, and
// it is still present (and sensible) on the final update.
func TestProgressiveReliability(t *testing.T) {
	db := obsTestDB(t)
	ch, wait := db.QueryProgressive(context.Background(), obsPointSQL,
		WithSeed(6), WithWaveRows(2048))
	waves := 0
	var last Update
	for u := range ch {
		waves++
		if len(u.Values) != 1 || u.Values[0].Reliability == "" {
			t.Fatalf("wave %d lacks a reliability grade: %+v", u.Wave, u.Values)
		}
		last = u
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if waves < 2 || !last.Final {
		t.Fatalf("stream ended after %d waves, final=%v", waves, last.Final)
	}
	if g := last.Values[0].Reliability; g != "A" && g != "B" {
		t.Fatalf("full-scan reliability = %q over %d uniform-ish rows, want A or B", g, obsFactRows)
	}
}

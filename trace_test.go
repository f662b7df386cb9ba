package gus

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// obsFactRows sizes the fact table: more than two engine partitions
// (DefaultPartitionSize 4096), so progressive streams emit several waves
// and scan-fraction stops can trigger mid-stream.
const obsFactRows = 9000

// obsTestDB builds a small deterministic database shared by the
// observability tests: a fact table, a dimension to join against, and
// enough rows that sampling is non-trivial.
func obsTestDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	fact, err := db.CreateTable("fact", Column{"fk", Int}, Column{"grp", Int}, Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := db.CreateTable("dim", Column{"id", Int}, Column{"w", Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < obsFactRows; i++ {
		if err := fact.Insert(i%50, i%5, float64(i%97)+0.25); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := dim.Insert(i, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const (
	obsPointSQL = `SELECT SUM(v) FROM fact TABLESAMPLE BERNOULLI(30) WHERE v > 10.0`
	obsJoinSQL  = `SELECT SUM(v*w) FROM fact TABLESAMPLE BERNOULLI(30), dim WHERE fk = id`
	obsGroupSQL = `SELECT SUM(v), COUNT(*) FROM fact TABLESAMPLE BERNOULLI(30) GROUP BY grp`
)

// TestTracingBitIdentical enforces the contract that attaching a trace
// never changes results: point, join and GROUP BY estimates must be
// bit-identical with and without WithTrace.
func TestTracingBitIdentical(t *testing.T) {
	db := obsTestDB(t)
	for _, tc := range []struct {
		name, sql string
	}{{"point", obsPointSQL}, {"join", obsJoinSQL}, {"group", obsGroupSQL}} {
		off, err := db.Query(tc.sql, WithSeed(11))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tr := &Trace{}
		on, err := db.Query(tc.sql, WithSeed(11), WithTrace(tr))
		if err != nil {
			t.Fatalf("%s traced: %v", tc.name, err)
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("%s: trace recorded no spans", tc.name)
		}
		if tr.SQL != tc.sql || tr.Shape != sqlparse.Normalize(tc.sql) {
			t.Fatalf("%s: trace identity (%q, %q)", tc.name, tr.SQL, tr.Shape)
		}
		sameValues(t, tc.name, on, off)
	}
}

// TestTracingBitIdenticalProgressive runs a streamable progressive query
// to completion with and without a trace and compares final updates.
func TestTracingBitIdenticalProgressive(t *testing.T) {
	db := obsTestDB(t)
	run := func(opts ...Option) Update {
		opts = append(opts, WithSeed(5), WithWaveRows(512))
		ch, wait := db.QueryProgressive(context.Background(), obsPointSQL, opts...)
		var last Update
		for u := range ch {
			last = u
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	off := run()
	tr := &Trace{}
	on := run(WithTrace(tr))
	if !off.Final || !on.Final {
		t.Fatalf("streams did not run to completion: off=%+v on=%+v", off, on)
	}
	if off.Estimate != on.Estimate || off.StdErr != on.StdErr ||
		off.CILow != on.CILow || off.CIHigh != on.CIHigh {
		t.Fatalf("progressive results differ with tracing on:\noff %+v\non  %+v", off, on)
	}
	if len(tr.Waves) == 0 {
		t.Fatal("progressive trace recorded no wave points")
	}
	if tr.Shape != sqlparse.Normalize(obsPointSQL) {
		t.Fatalf("progressive trace shape %q", tr.Shape)
	}
	lastWave := tr.Waves[len(tr.Waves)-1]
	if lastWave.FractionScanned != 1 || lastWave.Estimate != on.Estimate {
		t.Fatalf("final wave point %+v does not match final update %+v", lastWave, on)
	}
}

func spansNamed(tr *Trace, name string) []TraceSpan {
	var out []TraceSpan
	for _, s := range tr.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestTraceRowCountsReconcile checks that recorded span row counts agree
// with the table sizes and the result's sample cardinality.
func TestTraceRowCountsReconcile(t *testing.T) {
	db := obsTestDB(t)
	tr := &Trace{}
	res, err := db.Query(obsPointSQL, WithSeed(3), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	fused := spansNamed(tr, "fused")
	if len(fused) != 1 {
		t.Fatalf("expected one fused span, got %+v", tr.Spans)
	}
	if fused[0].RowsIn != obsFactRows {
		t.Fatalf("fused rows_in = %d, want the table's %d", fused[0].RowsIn, obsFactRows)
	}
	if fused[0].Fraction != 0.3 {
		t.Fatalf("fused fraction = %v, want 0.3", fused[0].Fraction)
	}
	if fused[0].Partitions <= 0 {
		t.Fatalf("fused partitions = %d", fused[0].Partitions)
	}
	est := spansNamed(tr, "estimate")
	if len(est) != 1 {
		t.Fatalf("expected one estimate span, got %+v", tr.Spans)
	}
	if est[0].RowsIn != int64(res.SampleRows) {
		t.Fatalf("estimate rows_in = %d, want SampleRows %d", est[0].RowsIn, res.SampleRows)
	}

	// Join shape: build side sees dim's rows, probe emits the join's
	// output, which feeds the estimator.
	tr = &Trace{}
	res, err = db.Query(obsJoinSQL, WithSeed(3), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	probe := spansNamed(tr, "join-probe")
	if len(probe) != 1 || probe[0].RowsOut != int64(res.SampleRows) {
		t.Fatalf("join-probe rows_out %+v, want SampleRows %d", probe, res.SampleRows)
	}
	if build := spansNamed(tr, "join-build"); len(build) != 1 {
		t.Fatalf("expected one join-build span, got %+v", tr.Spans)
	}
}

// TestTracePlanCacheHitRecorded checks the parse+plan span's cache flag
// across a miss-then-hit sequence.
func TestTracePlanCacheHitRecorded(t *testing.T) {
	db := obsTestDB(t)
	const sql = `SELECT COUNT(*) FROM fact TABLESAMPLE BERNOULLI(10) WHERE grp = 1`
	tr1 := &Trace{}
	if _, err := db.Query(sql, WithTrace(tr1)); err != nil {
		t.Fatal(err)
	}
	tr2 := &Trace{}
	if _, err := db.Query(sql, WithTrace(tr2)); err != nil {
		t.Fatal(err)
	}
	pp1, pp2 := spansNamed(tr1, "parse+plan"), spansNamed(tr2, "parse+plan")
	if len(pp1) != 1 || len(pp2) != 1 {
		t.Fatalf("missing parse+plan spans: %d, %d", len(pp1), len(pp2))
	}
	if pp1[0].Hit {
		t.Fatal("first execution reported a plan-cache hit")
	}
	if !pp2[0].Hit {
		t.Fatal("second execution did not report a plan-cache hit")
	}
}

// TestExplainAnalyze drives EXPLAIN ANALYZE through all four supported
// query shapes and checks the rendered trace.
func TestExplainAnalyze(t *testing.T) {
	db := obsTestDB(t)
	for _, tc := range []struct {
		name, sql string
		wants     []string
	}{
		{"point", "EXPLAIN ANALYZE " + obsPointSQL, []string{"fused", "estimate", "parse+plan", "total:"}},
		{"join", "EXPLAIN ANALYZE " + obsJoinSQL, []string{"join-build", "join-probe", "estimate"}},
		{"group", "EXPLAIN ANALYZE " + obsGroupSQL, []string{"group", "estimate"}},
	} {
		res, err := db.Query(tc.sql, WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.ExplainText == "" {
			t.Fatalf("%s: no ExplainText", tc.name)
		}
		for _, w := range tc.wants {
			if !strings.Contains(res.ExplainText, w) {
				t.Fatalf("%s: EXPLAIN ANALYZE output missing %q:\n%s", tc.name, w, res.ExplainText)
			}
		}
		// The underlying query still ran and produced results.
		if len(res.Values) == 0 && len(res.Groups) == 0 {
			t.Fatalf("%s: EXPLAIN ANALYZE returned no results", tc.name)
		}
		// And the estimates match the plain statement bit-for-bit.
		plain, err := db.Query(strings.TrimPrefix(tc.sql, "EXPLAIN ANALYZE "), WithSeed(2))
		if err != nil {
			t.Fatalf("%s plain: %v", tc.name, err)
		}
		sameValues(t, tc.name, res, plain)
	}

	// Progressive: the Done update carries the rendered trace with the
	// wave series.
	ch, wait := db.QueryProgressive(context.Background(),
		"EXPLAIN ANALYZE "+obsPointSQL, WithSeed(2), WithWaveRows(512))
	var last Update
	for u := range ch {
		if !u.Done && u.ExplainText != "" {
			t.Fatal("ExplainText set on a non-final update")
		}
		last = u
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if last.ExplainText == "" {
		t.Fatalf("progressive EXPLAIN ANALYZE: no ExplainText on Done update %+v", last)
	}
	for _, w := range []string{"parse+plan", "wave", "total:"} {
		if !strings.Contains(last.ExplainText, w) {
			t.Fatalf("progressive EXPLAIN ANALYZE missing %q:\n%s", w, last.ExplainText)
		}
	}
}

// TestProgressiveStageSpansMatchQuery: every entry point runs the same
// executor stages, so the spans they record before the engine's —
// parse+plan, synopsis, gus-compact — are the same, in the same order, for
// db.Query, a streamed single-table QueryProgressive and a join that falls
// back to one run.
func TestProgressiveStageSpansMatchQuery(t *testing.T) {
	db := obsTestDB(t)
	stages := func(tr *Trace) string {
		var out []string
		for _, s := range tr.Spans {
			switch s.Name {
			case "parse+plan", "synopsis", "gus-compact":
				out = append(out, s.Name)
			}
		}
		return strings.Join(out, " ")
	}
	const want = "parse+plan synopsis gus-compact"
	for _, tc := range []struct{ name, sql string }{{"single-table", obsPointSQL}, {"join fallback", obsJoinSQL}} {
		tr := &Trace{}
		if _, err := db.Query(tc.sql, WithSeed(4), WithTrace(tr)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := stages(tr); got != want {
			t.Fatalf("%s: Query stage spans [%s], want [%s]", tc.name, got, want)
		}
		tr = &Trace{}
		ch, wait := db.QueryProgressive(context.Background(), tc.sql, WithSeed(4), WithWaveRows(512), WithTrace(tr))
		if _, err := drain(ch, wait); err != nil {
			t.Fatalf("%s progressive: %v", tc.name, err)
		}
		if got := stages(tr); got != want {
			t.Fatalf("%s: QueryProgressive stage spans [%s], want Query's [%s]", tc.name, got, want)
		}
	}
}

// TestProgressiveFailuresCountedLikeQuery: a statement that fails before
// answering moves gus_queries_total{status="error"} — and, once the
// statement has planned, its shape's error counter — by exactly one,
// whichever entry point ran it. GROUP BY fails only when streamed.
func TestProgressiveFailuresCountedLikeQuery(t *testing.T) {
	db := obsTestDB(t)
	metric := func(name, label string) float64 {
		for _, m := range db.MetricsSnapshot() {
			if m.Name == name && m.Label == label {
				return m.Value
			}
		}
		return 0
	}
	query := func(sql string) error {
		_, err := db.Query(sql)
		return err
	}
	stream := func(sql string) error {
		_, err := drain(db.QueryProgressive(context.Background(), sql))
		return err
	}
	for _, tc := range []struct {
		name, sql string
		planned   bool // the statement reaches a shape slot
		runs      []func(string) error
	}{
		{"unknown table", `SELECT SUM(v) FROM missing`, false, []func(string) error{query, stream}},
		{"bind", `SELECT SUM(v) FROM fact WHERE v > ?`, true, []func(string) error{query, stream}},
		{"group by", obsGroupSQL, true, []func(string) error{stream}},
		{"evaluation", `SELECT SUM(v) FROM fact TABLESAMPLE BERNOULLI(30) WHERE v > 'x'`, true, []func(string) error{query, stream}},
	} {
		shape := sqlparse.Normalize(tc.sql)
		for i, run := range tc.runs {
			errs, shapeErrs := metric("gus_queries_total", "error"), metric("gus_shape_errors_total", shape)
			if err := run(tc.sql); err == nil {
				t.Fatalf("%s run %d: no error", tc.name, i)
			}
			if d := metric("gus_queries_total", "error") - errs; d != 1 {
				t.Errorf("%s run %d: gus_queries_total{error} moved by %v, want 1", tc.name, i, d)
			}
			want := 0.0
			if tc.planned {
				want = 1
			}
			if d := metric("gus_shape_errors_total", shape) - shapeErrs; d != want {
				t.Errorf("%s run %d: shape error counter moved by %v, want %v", tc.name, i, d, want)
			}
		}
	}
	if m := metric("gus_in_flight_queries", ""); m != 0 {
		t.Fatalf("gus_in_flight_queries = %v after failures, want 0", m)
	}
}

// TestPlainExplainRejected pins the dialect decision: EXPLAIN without
// ANALYZE is an error, not a silent no-op.
func TestPlainExplainRejected(t *testing.T) {
	db := obsTestDB(t)
	_, err := db.Query("EXPLAIN " + obsPointSQL)
	if err == nil || !strings.Contains(err.Error(), "ANALYZE") {
		t.Fatalf("plain EXPLAIN: got %v, want an error mentioning ANALYZE", err)
	}
}

// TestMetricsSnapshotAfterQueries checks the DB-level metric pipeline:
// outcome counters, rows scanned, latency histogram and shape slots.
func TestMetricsSnapshotAfterQueries(t *testing.T) {
	db := obsTestDB(t)
	for i := 0; i < 3; i++ {
		if _, err := db.Query(obsPointSQL, WithSeed(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query("SELECT SUM(nope) FROM missing"); err == nil {
		t.Fatal("expected error for unknown table")
	}
	snap := db.MetricsSnapshot()
	get := func(name, label string) (MetricSample, bool) {
		for _, m := range snap {
			if m.Name == name && m.Label == label {
				return m, true
			}
		}
		return MetricSample{}, false
	}
	if m, ok := get("gus_queries_total", "ok"); !ok || m.Value != 3 {
		t.Fatalf("gus_queries_total{ok} = %+v, want 3", m)
	}
	if m, ok := get("gus_in_flight_queries", ""); !ok || m.Value != 0 {
		t.Fatalf("gus_in_flight_queries = %+v, want 0", m)
	}
	if m, ok := get("gus_rows_scanned_total", ""); !ok || m.Value != 3*obsFactRows {
		t.Fatalf("gus_rows_scanned_total = %+v, want %d", m, 3*obsFactRows)
	}
	if m, ok := get("gus_query_seconds", ""); !ok || m.Count != 3 {
		t.Fatalf("gus_query_seconds count = %+v, want 3 observations", m)
	}
	if m, ok := get("gus_plan_cache_hits_total", ""); !ok || m.Value < 2 {
		t.Fatalf("gus_plan_cache_hits_total = %+v, want ≥ 2", m)
	}
	shape, ok := get("gus_shape_queries_total", sqlparse.Normalize(obsPointSQL))
	if !ok || shape.Value != 3 {
		t.Fatalf("per-shape counter = %+v, want 3 under label %q", shape, sqlparse.Normalize(obsPointSQL))
	}
	// The failed statement never planned, so no error shape slot exists —
	// but the global error counter must have moved. (Statements that fail
	// at run time do hit their shape's error slot.)
	if m, ok := get("gus_queries_total", "error"); !ok || m.Value < 1 {
		t.Fatalf("gus_queries_total{error} = %+v, want ≥ 1", m)
	}

	var sb strings.Builder
	if err := db.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, w := range []string{"# TYPE gus_query_seconds histogram", "gus_queries_total{status=\"ok\"} 3", "gus_query_seconds_count 3"} {
		if !strings.Contains(text, w) {
			t.Fatalf("WriteMetrics missing %q:\n%s", w, text)
		}
	}
}

// TestProgressiveStopReasonMetrics checks the early-stop reason counter.
func TestProgressiveStopReasonMetrics(t *testing.T) {
	db := obsTestDB(t)
	drain := func(opts ...Option) {
		t.Helper()
		ch, wait := db.QueryProgressive(context.Background(), obsPointSQL, opts...)
		for range ch {
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	drain(WithWaveRows(512))                       // runs to completion
	drain(WithWaveRows(512), WithMaxFraction(0.5)) // stops on scan budget after wave 2 (~0.91)
	var complete, maxFrac float64
	for _, m := range db.MetricsSnapshot() {
		if m.Name == "gus_progressive_stop_total" {
			switch m.Label {
			case "complete":
				complete = m.Value
			case "max-fraction":
				maxFrac = m.Value
			}
		}
	}
	if complete != 1 || maxFrac != 1 {
		t.Fatalf("stop reasons: complete=%v max-fraction=%v, want 1 and 1", complete, maxFrac)
	}
}

// TestMetricsConcurrentQueries exercises the whole metrics path from
// many goroutines; the -race detector is the assertion, plus the final
// counter total.
func TestMetricsConcurrentQueries(t *testing.T) {
	db := obsTestDB(t)
	const workers, per = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sql := obsPointSQL
				if (w+i)%2 == 1 {
					sql = obsJoinSQL
				}
				if _, err := db.Query(sql, WithSeed(uint64(w*100+i))); err != nil {
					t.Error(err)
					return
				}
				db.MetricsSnapshot()
			}
		}(w)
	}
	wg.Wait()
	var ok float64
	for _, m := range db.MetricsSnapshot() {
		if m.Name == "gus_queries_total" && m.Label == "ok" {
			ok = m.Value
		}
	}
	if ok != workers*per {
		t.Fatalf("gus_queries_total{ok} = %v, want %d", ok, workers*per)
	}
}

// TestTraceOverheadGuard is the disabled-path regression guard: with no
// trace attached, a full query — now running through the instrumented
// engine, estimator and metrics shim — must not allocate more than the
// frozen budget. Every span site compiles to one nil test and every
// metric update to pre-resolved atomics, so new allocations here mean
// observability has leaked onto the hot path.
func TestTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's tiny data")
	}
	if raceEnabled {
		t.Skip("race detector drops random sync.Pool puts; alloc counts are not stable")
	}
	db := obsTestDB(t)
	query := func() {
		if _, err := db.Query(obsJoinSQL, WithWorkers(1), WithSeed(7)); err != nil {
			t.Fatal(err)
		}
	}
	traced := func() {
		if _, err := db.Query(obsJoinSQL, WithWorkers(1), WithSeed(7), WithTrace(&Trace{})); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm plan cache and pools
	traced()
	// Budgets frozen ~15% above the measured steady state (≈352 untraced,
	// ≈439 traced at this scale): tight enough that a leak of even a few
	// allocations per span site — which multiplies by stages × partitions
	// — fails the test, with margin for Go-version noise. The traced
	// budget pins that a trace costs spans, not a pass over the sample
	// (the string-keyed diagnostics it used to trigger took ≈5 900).
	// (alloc_test.go holds the coarser per-row-regression budgets.)
	const budget, tracedBudget = 410, 510
	if n := testing.AllocsPerRun(10, traced); n > tracedBudget {
		t.Fatalf("traced query allocates %.0f times, budget %d — tracing has "+
			"picked up per-row work", n, tracedBudget)
	}
	if n := testing.AllocsPerRun(10, query); n > budget {
		t.Fatalf("untraced query allocates %.0f times, budget %d — the disabled "+
			"observability path is no longer allocation-free", n, budget)
	}
}

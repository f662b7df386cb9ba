package gus

// Prepared-statement suite: the equivalence contract (a *Stmt execution is
// bit-identical to the literal-SQL query for any binding, seed and worker
// count, across Query, Exact and QueryProgressive), concurrent reuse of
// one shared Stmt under varying bindings, the DB-wide plan cache's LRU and
// catalog-write invalidation semantics, and the placeholder error surface.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sampling-algebra/gus/internal/tpch"
)

// sameValues asserts every estimator field of two results matches exactly
// (bit-identity, not approximate closeness). PlanText intentionally
// differs — a prepared plan prints `?N` where the literal plan prints the
// constant — so only numeric outputs are compared.
func sameValues(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.SampleRows != want.SampleRows {
		t.Fatalf("%s: SampleRows %d != %d", tag, got.SampleRows, want.SampleRows)
	}
	if len(got.Values) != len(want.Values) || len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: shape mismatch: %d/%d values, %d/%d groups",
			tag, len(got.Values), len(want.Values), len(got.Groups), len(want.Groups))
	}
	cmp := func(tag string, g, w Value) {
		t.Helper()
		if g.Name != w.Name || g.Kind != w.Kind {
			t.Fatalf("%s: label mismatch: %s/%s vs %s/%s", tag, g.Name, g.Kind, w.Name, w.Kind)
		}
		if g.Value != w.Value || g.Estimate != w.Estimate || g.StdErr != w.StdErr ||
			g.CILow != w.CILow || g.CIHigh != w.CIHigh || g.Approximate != w.Approximate {
			t.Fatalf("%s: not bit-identical:\n got %+v\nwant %+v", tag, g, w)
		}
	}
	for i := range got.Values {
		cmp(fmt.Sprintf("%s value[%d]", tag, i), got.Values[i], want.Values[i])
	}
	for i := range got.Groups {
		if got.Groups[i].Key != want.Groups[i].Key {
			t.Fatalf("%s: group[%d] key %q != %q", tag, i, got.Groups[i].Key, want.Groups[i].Key)
		}
		for j := range got.Groups[i].Values {
			cmp(fmt.Sprintf("%s group[%d].value[%d]", tag, i, j), got.Groups[i].Values[j], want.Groups[i].Values[j])
		}
	}
}

// The two BenchmarkPrepared shapes, each as a `?` template and as the
// literal SQL of the same bindings: a point query, where the SQL front end
// is a visible fraction of the call, and a TPC-H Q1-style scan.
const (
	prepPointSQL = `SELECT COUNT(*), SUM(o_totalprice) FROM orders TABLESAMPLE (50 PERCENT) WHERE o_custkey = ?`
	prepPointLit = `SELECT COUNT(*), SUM(o_totalprice) FROM orders TABLESAMPLE (50 PERCENT) WHERE o_custkey = 77`
	prepQ1SQL    = `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue, SUM(l_quantity) AS qty, COUNT(*) AS n
FROM lineitem TABLESAMPLE (? PERCENT) WHERE l_quantity < ?`
	prepQ1Lit = `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue, SUM(l_quantity) AS qty, COUNT(*) AS n
FROM lineitem TABLESAMPLE (25 PERCENT) WHERE l_quantity < 24.0`
)

func prepBenchDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 5000, Customers: 500, Parts: 125, Seed: 3}); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestPreparedAllocsBelowOneShot is what compile-once buys, as allocation
// counts: on both BenchmarkPrepared shapes, a prepared Stmt.Query and a
// plan-cache-hit db.Query must each allocate less than a one-shot db.Query
// with the plan cache off, which re-runs the SQL front end every call
// (go1.24: point 305 one-shot / 255 cached / 248 prepared, Q1 394 / 317 /
// 294). Skipped under the race detector, which drops pool Puts at random.
func TestPreparedAllocsBelowOneShot(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops random sync.Pool puts; alloc counts are not stable")
	}
	db := prepBenchDB(t)
	ctx := context.Background()
	allocs := func(run func() (*Result, error)) float64 {
		call := func() {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm the plan cache, kernels and pools
		return testing.AllocsPerRun(10, call)
	}
	for _, sh := range []struct {
		name, prep, lit string
		args            []any
	}{
		{"point", prepPointSQL, prepPointLit, []any{77}},
		{"q1", prepQ1SQL, prepQ1Lit, []any{25, 24.0}},
	} {
		st, err := db.Prepare(sh.prep)
		if err != nil {
			t.Fatal(err)
		}
		literal := func() (*Result, error) { return db.Query(sh.lit, WithSeed(7), WithWorkers(1)) }
		db.SetPlanCacheCap(0)
		oneshot := allocs(literal)
		db.SetPlanCacheCap(DefaultPlanCacheSize)
		cached := allocs(literal)
		prepared := allocs(func() (*Result, error) {
			return st.Query(ctx, append(append([]any{}, sh.args...), WithSeed(7), WithWorkers(1))...)
		})
		t.Logf("%s: %.0f one-shot / %.0f cached / %.0f prepared allocs per query", sh.name, oneshot, cached, prepared)
		if prepared >= oneshot || cached >= oneshot {
			t.Errorf("%s: prepared (%.0f) and cached (%.0f) must each allocate less than one-shot (%.0f)",
				sh.name, prepared, cached, oneshot)
		}
	}
}

// TestPreparedEquivalence is the equivalence suite: for every query shape
// the dialect supports — predicate placeholders, aggregate-argument
// placeholders, TABLESAMPLE (? PERCENT | ? ROWS), SYSTEM(?), QUANTILE,
// AVG, GROUP BY — a prepared execution must be bit-identical to db.Query
// and db.Exact on the spliced-literal SQL, across seeds and worker counts.
func TestPreparedEquivalence(t *testing.T) {
	db := testDB(t, 3000)
	cases := []struct {
		name string
		prep string
		args []any
		lit  string
	}{
		{
			name: "point-predicate",
			prep: `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (10 PERCENT) WHERE l_quantity < ?`,
			args: []any{24.0},
			lit:  `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (10 PERCENT) WHERE l_quantity < 24.0`,
		},
		{
			name: "sample-rate-param",
			prep: `SELECT COUNT(*) FROM lineitem TABLESAMPLE (? PERCENT) WHERE l_quantity < ?`,
			args: []any{25, 30.0},
			lit:  `SELECT COUNT(*) FROM lineitem TABLESAMPLE (25 PERCENT) WHERE l_quantity < 30.0`,
		},
		{
			name: "rows-param-join",
			prep: `SELECT SUM(l_discount*(1.0-l_tax)) FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (? ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > ?`,
			args: []any{500, 100.0},
			lit:  `SELECT SUM(l_discount*(1.0-l_tax)) FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (500 ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`,
		},
		{
			name: "system-param",
			prep: `SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE SYSTEM (?)`,
			args: []any{20},
			lit:  `SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE SYSTEM (20)`,
		},
		{
			name: "bernoulli-param",
			prep: `SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE BERNOULLI (?)`,
			args: []any{15.0},
			lit:  `SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE BERNOULLI (15)`,
		},
		{
			name: "aggregate-arg-param",
			prep: `SELECT SUM(l_extendedprice*(1.0-?)) AS disc, AVG(l_quantity*?) AS q FROM lineitem TABLESAMPLE (20 PERCENT) WHERE l_quantity < ?`,
			args: []any{0.05, 2.0, 40.0},
			lit:  `SELECT SUM(l_extendedprice*(1.0-0.05)) AS disc, AVG(l_quantity*2.0) AS q FROM lineitem TABLESAMPLE (20 PERCENT) WHERE l_quantity < 40.0`,
		},
		{
			name: "quantile-numbered-params",
			prep: `SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05) FROM lineitem TABLESAMPLE (?1 PERCENT), orders TABLESAMPLE (1000 ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > ?2`,
			args: []any{10, 100.0},
			lit:  `SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05) FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`,
		},
		{
			name: "int-param-int-column",
			prep: `SELECT COUNT(*) FROM lineitem TABLESAMPLE (30 PERCENT) WHERE l_linenumber = ?`,
			args: []any{2},
			lit:  `SELECT COUNT(*) FROM lineitem TABLESAMPLE (30 PERCENT) WHERE l_linenumber = 2`,
		},
		{
			name: "group-by",
			prep: `SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n FROM lineitem TABLESAMPLE (25 PERCENT) WHERE l_quantity < ? GROUP BY l_linenumber`,
			args: []any{30.0},
			lit:  `SELECT SUM(l_extendedprice) AS rev, COUNT(*) AS n FROM lineitem TABLESAMPLE (25 PERCENT) WHERE l_quantity < 30.0 GROUP BY l_linenumber`,
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := db.Prepare(tc.prep)
			if err != nil {
				t.Fatal(err)
			}
			if st.NumParams() != len(tc.args) {
				t.Fatalf("NumParams = %d, want %d", st.NumParams(), len(tc.args))
			}
			for _, seed := range []uint64{1, 7, 42} {
				for _, workers := range []int{1, 3} {
					tag := fmt.Sprintf("seed=%d workers=%d", seed, workers)
					opts := []Option{WithSeed(seed), WithWorkers(workers)}
					want, err := db.Query(tc.lit, opts...)
					if err != nil {
						t.Fatalf("%s literal: %v", tag, err)
					}
					args := append(append([]any{}, tc.args...), WithSeed(seed), WithWorkers(workers))
					got, err := st.Query(ctx, args...)
					if err != nil {
						t.Fatalf("%s prepared: %v", tag, err)
					}
					sameValues(t, tag, got, want)
					// Repeat execution must be identical too (kernel reuse).
					again, err := st.Query(ctx, args...)
					if err != nil {
						t.Fatalf("%s prepared again: %v", tag, err)
					}
					sameValues(t, tag+" re-exec", again, want)
				}
				wantX, err := db.Exact(tc.lit, WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				gotX, err := st.Exact(ctx, append(append([]any{}, tc.args...), WithSeed(seed))...)
				if err != nil {
					t.Fatal(err)
				}
				sameValues(t, fmt.Sprintf("exact seed=%d", seed), gotX, wantX)
			}
		})
	}
}

// TestPreparedStringParam binds a string placeholder against a string
// column; the frozen digest is what the row engine's scalar binding gave.
func TestPreparedStringParam(t *testing.T) {
	db := Open()
	tb, err := db.CreateTable("ev", Column{"cat", String}, Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		cat := []string{"a", "b", "c"}[i%3]
		if err := tb.Insert(cat, float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.Prepare(`SELECT SUM(v), COUNT(*) FROM ev TABLESAMPLE (50 PERCENT) WHERE cat = ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cat := range []string{"a", "b", "zzz"} {
		lit := fmt.Sprintf(`SELECT SUM(v), COUNT(*) FROM ev TABLESAMPLE (50 PERCENT) WHERE cat = '%s'`, cat)
		want, err := db.Query(lit, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Query(ctx, cat, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, "cat="+cat, got, want)
		requireFrozen(t, "prepared cat="+cat, got)
	}
}

// TestPreparedKindRebinding executes one Stmt with an int binding, then a
// float binding, then an int again: each signature compiles its own
// kernels and results match the spliced literals every time.
func TestPreparedKindRebinding(t *testing.T) {
	db := testDB(t, 1500)
	st, err := db.Prepare(`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (40 PERCENT) WHERE l_linenumber < ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	steps := []struct {
		arg any
		lit string
	}{
		{3, `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (40 PERCENT) WHERE l_linenumber < 3`},
		{2.5, `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (40 PERCENT) WHERE l_linenumber < 2.5`},
		{4, `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (40 PERCENT) WHERE l_linenumber < 4`},
	}
	for _, s := range steps {
		want, err := db.Query(s.lit, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Query(ctx, s.arg, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, fmt.Sprintf("arg=%v", s.arg), got, want)
	}
}

// TestPreparedProgressiveEquivalence runs a prepared progressive stream to
// completion: its Final update must carry exactly db.Query's numbers, and
// the stream must also match db.QueryProgressive on the literal SQL.
func TestPreparedProgressiveEquivalence(t *testing.T) {
	db := testDB(t, 3000)
	const prep = `SELECT SUM(l_extendedprice*(1.0-l_discount)) FROM lineitem TABLESAMPLE (? PERCENT) WHERE l_quantity < ?`
	const lit = `SELECT SUM(l_extendedprice*(1.0-l_discount)) FROM lineitem TABLESAMPLE (80 PERCENT) WHERE l_quantity < 45.0`
	st, err := db.Prepare(prep)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ch, wait := st.QueryProgressive(context.Background(), 80, 45.0, WithSeed(11), WithWorkers(workers))
		var last Update
		n := 0
		for u := range ch {
			last = u
			n++
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if n < 2 || !last.Final {
			t.Fatalf("expected a multi-wave stream ending Final, got %d updates (final=%v)", n, last.Final)
		}
		want, err := db.Query(lit, WithSeed(11), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		v := last.Values[0]
		w := want.Values[0]
		if v.Estimate != w.Estimate || v.StdErr != w.StdErr || v.CILow != w.CILow || v.CIHigh != w.CIHigh {
			t.Fatalf("final update not bit-identical to Query: %+v vs %+v", v, w)
		}
	}
}

// TestPreparedConcurrentStmt hammers ONE shared *Stmt from 16 goroutines
// with different bindings and seeds; every result must be bit-identical to
// a serial literal-SQL reference computed up front. This is the CI -race
// target for prepared-pipeline snapshot safety.
func TestPreparedConcurrentStmt(t *testing.T) {
	db := testDB(t, 2000)
	st, err := db.Prepare(`SELECT SUM(l_discount*(1.0-l_tax)) FROM lineitem TABLESAMPLE (? PERCENT), orders TABLESAMPLE (400 ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > ?`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	type job struct {
		pct   int
		price float64
		seed  uint64
	}
	jobs := make([]job, goroutines)
	refs := make([]*Result, goroutines)
	for i := range jobs {
		jobs[i] = job{pct: 10 + (i%4)*10, price: 50.0 * float64(1+i%3), seed: uint64(i%5 + 1)}
		lit := fmt.Sprintf(`SELECT SUM(l_discount*(1.0-l_tax)) FROM lineitem TABLESAMPLE (%d PERCENT), orders TABLESAMPLE (400 ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > %v`,
			jobs[i].pct, jobs[i].price)
		ref, err := db.Query(lit, WithSeed(jobs[i].seed), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				res, err := st.Query(context.Background(), jobs[i].pct, jobs[i].price,
					WithSeed(jobs[i].seed), WithWorkers(1+i%3))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", i, err)
					return
				}
				g, w := res.Values[0], refs[i].Values[0]
				if g.Estimate != w.Estimate || g.StdErr != w.StdErr || g.CILow != w.CILow || g.CIHigh != w.CIHigh {
					errs <- fmt.Errorf("goroutine %d rep %d: diverged from serial reference", i, rep)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCacheHitsAndNormalization: re-running the same statement — even
// spelled with different whitespace and keyword case — hits the cache.
func TestPlanCacheHitsAndNormalization(t *testing.T) {
	db := testDB(t, 500)
	base := db.PlanCacheStats()
	if _, err := db.Query(`SELECT COUNT(*) FROM lineitem TABLESAMPLE (10 PERCENT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select   count(*)\nfrom lineitem tablesample (10 percent)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM lineitem TABLESAMPLE (10 PERCENT)`, WithSeed(9)); err != nil {
		t.Fatal(err)
	}
	s := db.PlanCacheStats()
	if hits := s.Hits - base.Hits; hits != 2 {
		t.Fatalf("expected 2 cache hits, got %d (stats %+v)", hits, s)
	}
	if misses := s.Misses - base.Misses; misses != 1 {
		t.Fatalf("expected 1 cache miss, got %d (stats %+v)", misses, s)
	}
}

// TestPlanCacheInvalidation: a catalog write (Insert / CreateTable /
// LoadCSV-equivalent) after Prepare must not serve a stale plan — the next
// db.Query misses the cache, re-plans, and sees the new data.
func TestPlanCacheInvalidation(t *testing.T) {
	db := Open()
	tb, err := db.CreateTable("t", Column{"v", Int})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := tb.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	const sql = `SELECT COUNT(*) FROM t`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0].Value != 100 {
		t.Fatalf("count = %v, want 100", res.Values[0].Value)
	}
	before := db.PlanCacheStats()
	if err := tb.Insert(101); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0].Value != 101 {
		t.Fatalf("count after insert = %v, want 101 (stale plan served?)", res.Values[0].Value)
	}
	after := db.PlanCacheStats()
	if after.Misses == before.Misses {
		t.Fatalf("expected the write to invalidate the cached plan (stats before %+v, after %+v)", before, after)
	}

	// A statement that could not plan before a catalog write must plan
	// after it: "unknown table" outcomes are not cached.
	if _, err := db.Query(`SELECT COUNT(*) FROM u`); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if _, err := db.CreateTable("u", Column{"w", Int}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM u`); err != nil {
		t.Fatalf("query after CreateTable: %v", err)
	}

	// User-held Stmts keep reading live data (they are not cache entries).
	st, err := db.Prepare(`SELECT SUM(v) FROM t WHERE v > ?`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := st.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1000); err != nil {
		t.Fatal(err)
	}
	r2, err := st.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Values[0].Value != r1.Values[0].Value+1000 {
		t.Fatalf("prepared stmt did not see the insert: %v then %v", r1.Values[0].Value, r2.Values[0].Value)
	}
}

// TestPlanCacheLRUBound: the cache never exceeds its capacity and evicts
// least-recently-used entries.
func TestPlanCacheLRUBound(t *testing.T) {
	db := testDB(t, 200)
	db.SetPlanCacheCap(2)
	for _, pct := range []int{5, 10, 15, 20} {
		sql := fmt.Sprintf(`SELECT COUNT(*) FROM lineitem TABLESAMPLE (%d PERCENT)`, pct)
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.PlanCacheStats(); s.Entries > 2 {
		t.Fatalf("cache grew past its cap: %+v", s)
	}
	db.SetPlanCacheCap(0)
	if _, err := db.Query(`SELECT COUNT(*) FROM lineitem TABLESAMPLE (5 PERCENT)`); err != nil {
		t.Fatal(err)
	}
	if s := db.PlanCacheStats(); s.Entries != 0 {
		t.Fatalf("disabled cache still holds entries: %+v", s)
	}
}

// TestPreparedErrors covers the placeholder error surface: arity
// mismatches, unbindable types, `?` where only literals are legal, and
// mis-typed TABLESAMPLE bindings.
func TestPreparedErrors(t *testing.T) {
	db := testDB(t, 200)
	ctx := context.Background()

	// db.Query cannot bind placeholders.
	if _, err := db.Query(`SELECT COUNT(*) FROM lineitem TABLESAMPLE (10 PERCENT) WHERE l_quantity < ?`); err == nil ||
		!strings.Contains(err.Error(), "1 parameter") {
		t.Fatalf("expected arity error from db.Query on placeholder SQL, got %v", err)
	}

	st, err := db.Prepare(`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (? PERCENT) WHERE l_quantity < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(ctx, 10); err == nil || !strings.Contains(err.Error(), "wants 2 parameter") {
		t.Fatalf("expected arity error, got %v", err)
	}
	if _, err := st.Query(ctx, 10, 20.0, 30.0); err == nil || !strings.Contains(err.Error(), "wants 2 parameter") {
		t.Fatalf("expected arity error, got %v", err)
	}
	// TABLESAMPLE (? PERCENT) bound to a string is a type error.
	if _, err := st.Query(ctx, "ten", 20.0); err == nil || !strings.Contains(err.Error(), "must be numeric") {
		t.Fatalf("expected numeric-binding error, got %v", err)
	}
	// Percent range still enforced for bound values.
	if _, err := st.Query(ctx, 150, 20.0); err == nil || !strings.Contains(err.Error(), "outside [0,100]") {
		t.Fatalf("expected range error, got %v", err)
	}
	// Unsupported Go types are rejected by position.
	if _, err := st.Query(ctx, []byte("x"), 20.0); err == nil || !strings.Contains(err.Error(), "argument 1") {
		t.Fatalf("expected bind-type error, got %v", err)
	}

	// ROWS placeholders must bind non-negative integers.
	st2, err := db.Prepare(`SELECT COUNT(*) FROM orders TABLESAMPLE (? ROWS)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Query(ctx, 12.5); err == nil || !strings.Contains(err.Error(), "non-negative integer") {
		t.Fatalf("expected ROWS integer error, got %v", err)
	}
	if _, err := st2.Query(ctx, -5); err == nil || !strings.Contains(err.Error(), "non-negative integer") {
		t.Fatalf("expected ROWS negative error, got %v", err)
	}

	// `?` in table position is a parse error with a position.
	if _, err := db.Prepare(`SELECT COUNT(*) FROM ?`); err == nil ||
		!strings.Contains(err.Error(), "expected table name") || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("expected positioned parse error for ? in table position, got %v", err)
	}
	// Non-contiguous explicit numbering is rejected at Prepare.
	if _, err := db.Prepare(`SELECT COUNT(*) FROM lineitem WHERE l_quantity < ?2`); err == nil ||
		!strings.Contains(err.Error(), "?1 is never used") {
		t.Fatalf("expected contiguity error, got %v", err)
	}
}

// TestProgressiveGroupByTyped: the GROUP BY rejection is a typed, wrapped
// ErrUnsupported, checkable with errors.Is.
func TestProgressiveGroupByTyped(t *testing.T) {
	db := testDB(t, 300)
	ch, wait := db.QueryProgressive(context.Background(),
		`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT) GROUP BY l_linenumber`)
	for range ch {
	}
	err := wait()
	if err == nil || !errors.Is(err, ErrUnsupported) {
		t.Fatalf("expected errors.Is(err, ErrUnsupported), got %v", err)
	}
}

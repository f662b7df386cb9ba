package gus

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/sampling-algebra/gus/internal/tpch"
)

const fusedJoinSQL = `
SELECT SUM(l_discount*(1.0-l_tax))
FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`

// TestFusedJoinAllocBudget is the allocation-budget guard for the keyed
// hot path: the full join-heavy pipeline (parse, plan, fused sampled
// scans, open-addressing hash join, batch-fed estimation) must stay within
// a fixed allocs-per-query budget, so a regression back toward per-row key
// materialization fails `go test ./...` — not just the benchmark run.
//
// The budget has ~4× headroom over the measured steady state (hundreds of
// allocations per query at this scale; the string-keyed implementation
// needed tens of thousands) to absorb Go-version and race-detector noise
// while still catching any per-row regression, which would blow past it by
// orders of magnitude.
func TestFusedJoinAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's tiny data")
	}
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 8000, Customers: 800, Parts: 200, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	query := func() {
		if _, err := db.Query(fusedJoinSQL, WithWorkers(1), WithSeed(7)); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm caches (snapshots, pools) before measuring
	const budget = 2500
	if n := testing.AllocsPerRun(5, query); n > budget {
		t.Fatalf("fused join path allocates %.0f times per query, budget %d — "+
			"per-row key materialization has crept back in", n, budget)
	}
}

// TestTracedJoinAllocBudget freezes what tracing may cost the same join:
// gusserve traces every request, so the traced path is the served path. A
// trace adds a span per stage and the variance diagnostics, which ride on
// the moment kernel's own pass — neither scales with the sample. The
// traced count must stay within twice the untraced one (632 vs 510
// measured; the string-keyed diagnostics pass this replaced allocated per
// sample row: 200 046 vs 5 093 on the benchmark's join). Skipped under
// the race detector, which drops pool Puts at random.
func TestTracedJoinAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's tiny data")
	}
	if raceEnabled {
		t.Skip("race detector drops random sync.Pool puts; alloc counts are not stable")
	}
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 8000, Customers: 800, Parts: 200, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	query := func(traced bool) func() {
		return func() {
			opts := []Option{WithWorkers(1), WithSeed(7)}
			if traced {
				opts = append(opts, WithTrace(&Trace{}))
			}
			if _, err := db.Query(fusedJoinSQL, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	query(false)() // warm caches (snapshots, pools) before measuring
	query(true)()
	untraced := testing.AllocsPerRun(5, query(false))
	traced := testing.AllocsPerRun(5, query(true))
	if traced > 2*untraced {
		t.Fatalf("traced join allocates %.0f times per query, untraced %.0f — tracing "+
			"may at most double it; a per-row diagnostics pass has crept back in", traced, untraced)
	}
}

// joinEstimateShapeDB is a two-relation foreign-key join at a scale where
// the join's scratch (hash table, selection vectors, per-side samples)
// runs to megabytes — the shape and proportions of the paper's Query 1 —
// served from memory-mapped segments, as gusserve serves it, so the Go
// heap holds query state only.
func joinEstimateShapeDB(t *testing.T) (*DB, string) {
	t.Helper()
	gen := Open()
	if err := gen.AttachTPCHConfig(tpch.Config{Orders: 50000, Customers: 5000, Parts: 2000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := gen.Save(dir); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, `
SELECT SUM(l_extendedprice*(1.0-l_discount))
FROM lineitem TABLESAMPLE (20 PERCENT), orders TABLESAMPLE (50 PERCENT)
WHERE l_orderkey = o_orderkey AND o_totalprice > 1000.0`
}

// TestTracedJoinHeapFootprint guards the scratch pools against the
// ratchet an unclassed pool has: a request pops whatever buffer is on top
// and, when it is too small, replaces it with one of its own size, so
// every pooled buffer drifts toward the largest size ever requested.
// Frequent GCs used to hide that by emptying the pools; once the estimator
// stopped producing garbage they stopped too, and a server answering
// nothing but this join held several times the memory. The loop runs
// traced queries (what gusserve runs) with no forced GC and bounds the
// heap the process still holds at the end: 7 MB measured with the
// size-classed, span-bounded pool, 43 MB with one sync.Pool per type.
func TestTracedJoinHeapFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a join large enough for megabyte scratch buffers")
	}
	db, sql := joinEstimateShapeDB(t)
	debug.FreeOSMemory() // a clean baseline (the generator's tables, earlier tests); the loop itself forces nothing
	for seed := uint64(0); seed < 300; seed++ {
		if _, err := db.Query(sql, WithSeed(seed), WithTrace(&Trace{})); err != nil {
			t.Fatal(err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	held := float64(ms.HeapSys-ms.HeapReleased) / (1 << 20)
	t.Logf("%.1f MB of heap held after 300 traced joins", held)
	const boundMB = 21
	if held > boundMB {
		t.Fatalf("%.0f MB of heap held after 300 traced joins, bound %d MB: scratch buffers are ratcheting", held, boundMB)
	}
}

// TestJoinBytesPerQuery bounds the bytes one traced query of the
// join_estimate shape allocates. Sampled scans under the hash join hand it
// selection vectors over their scans instead of gathering every sampled row
// into a batch of its own, so only the joined rows are ever copied. The
// bound is 0.7× the 4.63 MB per query measured when both sides were
// gathered first; 2.8 MB is measured with the selections. Skipped under the
// race detector, which drops pool Puts at random.
func TestJoinBytesPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a join large enough for megabyte scratch buffers")
	}
	if raceEnabled {
		t.Skip("race detector drops random sync.Pool puts; allocated bytes are not stable")
	}
	db, sql := joinEstimateShapeDB(t)
	query := func(seed uint64) {
		if _, err := db.Query(sql, WithSeed(seed), WithWorkers(2), WithTrace(&Trace{})); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(0); seed < 5; seed++ {
		query(seed) // warm the plan cache and scratch pools
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := uint64(100); seed < 100+runs; seed++ {
		query(seed)
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	t.Logf("%.2f MB allocated per query", perQuery)
	const boundMB = 0.7 * 4.63
	if perQuery > boundMB {
		t.Fatalf("%.2f MB allocated per join query, bound %.2f MB: the join's inputs are being gathered again", perQuery, boundMB)
	}
}

// TestInsertQueryBytesPerQuery bounds the bytes an insert→query cycle
// allocates on a resident TPC-H table: one inserted row, then a 10 % SUM
// over lineitem. A relation appends into its typed columns in place and
// the next snapshot is a view of them, so the cycle costs about what a
// warm query does (0.50 against 0.48 MB measured). A store that copies the
// table into a fresh snapshot after every insert spends 12.75 MB per cycle
// here on columns, lineage IDs and zone maps.
func TestInsertQueryBytesPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a table large enough for its copy to show")
	}
	if raceEnabled {
		t.Skip("race detector drops random sync.Pool puts; allocated bytes are not stable")
	}
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 50000, Customers: 5000, Parts: 2000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (10 PERCENT)`
	perQuery := func(insert bool) float64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for seed := uint64(0); seed < runs; seed++ {
			if insert {
				if err := tb.Insert(1, 1, 1, 1.0, 100.0, 0.0, 0.0); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Query(sql, WithSeed(seed), WithWorkers(2)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	}
	perQuery(false) // warm the plan cache and scratch pools
	warm, cycle := perQuery(false), perQuery(true)
	t.Logf("%.2f MB per warm query, %.2f MB per insert→query cycle", warm, cycle)
	if bound := 2*warm + 0.5; cycle > bound {
		t.Fatalf("%.2f MB per insert→query cycle, bound %.2f MB: an insert makes the next query copy the table", cycle, bound)
	}
}

// TestProgressiveBytesPerStream bounds the bytes one progressive stream
// allocates: BenchmarkProgressive's to-1%-CI stream, which stops after
// about half the scan. A wave recycles the previous wave's batch, the
// accumulator's spans come from (and go back to) pools, and an item's
// value buffers live for the whole stream, so a stream allocates little
// beyond its kernel outputs and one wave's batch. The bound is 0.3× the
// 3.29 MB per stream this test measured when every wave allocated all of
// those afresh (3.45 MB/op in BenchmarkProgressive/to-1pct-ci); 0.66 MB is
// measured with the reuse (0.70 MB/op). Skipped under the race detector,
// which drops pool Puts at random.
func TestProgressiveBytesPerStream(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a stream of many waves")
	}
	if raceEnabled {
		t.Skip("race detector drops random sync.Pool puts; allocated bytes are not stable")
	}
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 30000, Customers: 3000, Parts: 750, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	const sql = `
SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue
FROM lineitem TABLESAMPLE (90 PERCENT)
WHERE l_quantity < 45.0`
	stream := func() {
		ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(7), WithTargetRelativeCI(0.01))
		for range ch {
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		stream() // warm the plan cache and the pools
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	perStream := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	t.Logf("%.2f MB allocated per stream", perStream)
	const boundMB = 0.3 * 3.29
	if perStream > boundMB {
		t.Fatalf("%.2f MB allocated per progressive stream, bound %.2f MB: a wave buffer is being allocated afresh again", perStream, boundMB)
	}
}

package gus

// Benchmarks, one per paper artifact plus component-level microbenches.
// Mapping:
//
//	Figure 1  → BenchmarkFigure1Translation
//	Figure 2  → BenchmarkFigure2Query1Rewrite, BenchmarkQuery1EndToEnd
//	Figure 4  → BenchmarkFigure4Rewrite
//	Figure 5  → BenchmarkFigure5SubsampleRewrite
//	§6.1 runtime claim → BenchmarkRewriteNRelations/*
//	§6.3 moments       → BenchmarkMoments/*, BenchmarkUnbiasedY/*
//	§7 sub-sampling    → BenchmarkVarianceEstimation/*
//	accuracy           → not timed: TestEstimateUnbiasedAndVarianceCalibrated,
//	                     TestCICoverage (internal/estimator), TestSkewRateCalibration

import (
	"context"
	"fmt"
	"testing"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/sqlparse"
	"github.com/sampling-algebra/gus/internal/stats"
	"github.com/sampling-algebra/gus/internal/tpch"
)

// BenchmarkFigure1Translation measures translating concrete sampling
// methods into GUS parameters (Figure 1).
func BenchmarkFigure1Translation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Bernoulli("l", 0.1); err != nil {
			b.Fatal(err)
		}
		if _, err := core.WOR("o", 1000, 150000); err != nil {
			b.Fatal(err)
		}
	}
}

func query1PlanForBench(b *testing.B, orders int) plan.Node {
	b.Helper()
	tb, err := tpch.Generate(tpch.Config{Orders: orders, Customers: orders / 10, Parts: orders / 40, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	bern, _ := sampling.NewBernoulli("lineitem", 0.1)
	wor, _ := sampling.NewWOR("orders", 1000)
	return &plan.Select{
		Input: &plan.Join{
			Left:     &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: bern},
			Right:    &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: wor},
			LeftCol:  "l_orderkey",
			RightCol: "o_orderkey",
		},
		Pred: expr.Gt(expr.Col("l_extendedprice"), expr.Float(100)),
	}
}

// BenchmarkFigure2Query1Rewrite measures the SOA rewrite of the paper's
// Query 1 plan (Figure 2 a→c).
func BenchmarkFigure2Query1Rewrite(b *testing.B) {
	n := query1PlanForBench(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Analyze(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Rewrite measures the 4-relation Figure 4 rewrite.
func BenchmarkFigure4Rewrite(b *testing.B) {
	tb, err := tpch.Generate(tpch.Config{Orders: 2000, Customers: 100, Parts: 60, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	bernL, _ := sampling.NewBernoulli("lineitem", 0.1)
	worO, _ := sampling.NewWOR("orders", 1000)
	bernP, _ := sampling.NewBernoulli("part", 0.5)
	n := &plan.Join{
		Left: &plan.Join{
			Left: &plan.Join{
				Left:     &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: bernL},
				Right:    &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: worO},
				LeftCol:  "l_orderkey",
				RightCol: "o_orderkey",
			},
			Right:    &plan.Scan{Rel: tb.Customer},
			LeftCol:  "o_custkey",
			RightCol: "c_custkey",
		},
		Right:    &plan.Sample{Input: &plan.Scan{Rel: tb.Part}, Method: bernP},
		LeftCol:  "l_partkey",
		RightCol: "p_partkey",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Analyze(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5SubsampleRewrite measures the §7 sub-sampling rewrite
// (Figure 5 a→f).
func BenchmarkFigure5SubsampleRewrite(b *testing.B) {
	inner := query1PlanForBench(b, 2000)
	sub, _ := sampling.NewLineageHash(7, map[string]float64{"lineitem": 0.2, "orders": 0.3})
	n := &plan.Sample{Input: inner, Method: sub}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Analyze(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteNRelations checks the §6.1 claim ("a few milliseconds
// even for plans involving 10 relations") across plan widths.
func BenchmarkRewriteNRelations(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8, 10, 12} {
		b.Run(fmt.Sprintf("relations=%d", k), func(b *testing.B) {
			var root plan.Node
			for i := 0; i < k; i++ {
				name := fmt.Sprintf("r%d", i)
				rel := relation.MustNew(name, relation.MustSchema(
					relation.Column{Name: fmt.Sprintf("k%d", i), Kind: relation.KindInt}))
				for j := 0; j < 4; j++ {
					rel.MustAppend(relation.Int(int64(j)))
				}
				m, err := sampling.NewBernoulli(name, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				leaf := plan.Node(&plan.Sample{Input: &plan.Scan{Rel: rel}, Method: m})
				if root == nil {
					root = leaf
					continue
				}
				root = &plan.Join{Left: root, Right: leaf,
					LeftCol: fmt.Sprintf("k%d", i-1), RightCol: fmt.Sprintf("k%d", i)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Analyze(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sampleRowsForBench(b *testing.B, rows int, n int) ([]lineage.Vector, []float64) {
	b.Helper()
	rng := stats.NewRNG(5)
	lins := make([]lineage.Vector, rows)
	fs := make([]float64, rows)
	for i := range lins {
		v := lineage.NewVector(n)
		for j := range v {
			v[j] = lineage.TupleID(rng.Intn(rows/4 + 1))
		}
		lins[i] = v
		fs[i] = rng.Float64() * 100
	}
	return lins, fs
}

// BenchmarkMoments measures the §6.3 Y_S group-by-lineage computation.
func BenchmarkMoments(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		for _, n := range []int{2, 4} {
			b.Run(fmt.Sprintf("rows=%d/relations=%d", rows, n), func(b *testing.B) {
				lins, fs := sampleRowsForBench(b, rows, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					estimator.Moments(n, lins, fs)
				}
			})
		}
	}
}

// BenchmarkUnbiasedY measures the §6.3 Ŷ recursion across schema widths.
func BenchmarkUnbiasedY(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			g, err := core.Bernoulli("r0", 0.5)
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i < n; i++ {
				next, err := core.Bernoulli(fmt.Sprintf("r%d", i), 0.5)
				if err != nil {
					b.Fatal(err)
				}
				if g, err = core.Compose(g, next); err != nil {
					b.Fatal(err)
				}
			}
			y := make([]float64, 1<<uint(n))
			rng := stats.NewRNG(3)
			for i := range y {
				y[i] = rng.Float64() * 1000
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := estimator.UnbiasedY(g, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVarianceEstimation compares full-sample vs §7 sub-sampled
// variance estimation on a large sample.
func BenchmarkVarianceEstimation(b *testing.B) {
	n := query1PlanForBench(b, 20000)
	analysis, err := plan.Analyze(n)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := plan.Execute(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := expr.Col("l_extendedprice")
	for _, target := range []int{0, 10000, 1000} {
		name := "full"
		if target > 0 {
			name = fmt.Sprintf("subsample=%d", target)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := estimator.Estimate(analysis.G, rows, f,
					estimator.Options{MaxVarianceRows: target, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteQuery1 measures executing the sampled plan itself.
func BenchmarkExecuteQuery1(b *testing.B) {
	n := query1PlanForBench(b, 8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(n, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures parsing the paper's Query 1 text.
func BenchmarkSQLParse(b *testing.B) {
	const sql = `
SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05),
       QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95)
FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery1EndToEnd measures the full pipeline: parse, plan,
// execute, rewrite, estimate, interval — the §1 APPROX view.
func BenchmarkQuery1EndToEnd(b *testing.B) {
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 4000, Customers: 400, Parts: 100, Seed: 3}); err != nil {
		b.Fatal(err)
	}
	const sql = `
SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05),
       QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95)
FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures the full pipeline (parse, plan, execute,
// estimate) on the TPC-H generator, in two dimensions:
//
//   - join/…  — the paper's Query-1 shape (two sampled scans, hash join,
//     selection), serial vs parallel;
//   - scanheavy/… — a TPC-H Q1-style single-table aggregation (sampled
//     scan, predicate, three aggregates): the fused kernel's headline case.
//
// Seeded results are bit-identical across every sub-benchmark; only
// wall-clock may differ. On a single-core host workers=N measures engine
// overhead, not speedup.
func BenchmarkQuery(b *testing.B) {
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 20000, Customers: 2000, Parts: 500, Seed: 3}); err != nil {
		b.Fatal(err)
	}
	const joinSQL = `
SELECT SUM(l_discount*(1.0-l_tax))
FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`
	// TPC-H Q1 style: scan-dominated single-table aggregation.
	const scanSQL = `
SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue,
       SUM(l_quantity) AS qty,
       COUNT(*) AS n
FROM lineitem TABLESAMPLE (25 PERCENT)
WHERE l_quantity < 24.0`
	run := func(sql string, workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sql, WithWorkers(workers), WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(joinSQL, 1))
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), run(joinSQL, w))
	}
	b.Run("scanheavy/columnar", run(scanSQL, 1))
	b.Run("scanheavy/columnar-workers=4", run(scanSQL, 4))
}

// BenchmarkPrepared measures compile-once/execute-many against one-shot
// execution, on a point query and a TPC-H Q1-style scan
// (TestPreparedAllocsBelowOneShot asserts the allocation ordering). Three
// modes each:
//
//   - oneshot  — db.Query with the plan cache disabled: parse, plan and
//     kernel compilation every iteration (the pre-cache behavior);
//   - cached   — db.Query with the default LRU plan cache: lex-normalize,
//     cache hit, execute;
//   - prepared — Stmt.Query with `?` bindings: re-execution skips parse
//     and plan entirely (no per-call lexing; kernels from the statement's
//     snapshot).
//
// Seeds vary per iteration, so sampling work is identical across modes;
// only the per-call front-end cost differs. The point query runs at a
// scale where that front end is a visible fraction of the call (a true
// point lookup); the Q1 shape shows the same saving diluted by a scan.
func BenchmarkPrepared(b *testing.B) {
	db := prepBenchDB(b)
	oneshot := func(sql string) func(*testing.B) {
		return func(b *testing.B) {
			db.SetPlanCacheCap(0)
			defer db.SetPlanCacheCap(DefaultPlanCacheSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sql, WithSeed(uint64(i)), WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	cached := func(sql string) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sql, WithSeed(uint64(i)), WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	prepared := func(sql string, args ...any) func(*testing.B) {
		return func(b *testing.B) {
			st, err := db.Prepare(sql)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				all := append(append([]any{}, args...), WithSeed(uint64(i)), WithWorkers(1))
				if _, err := st.Query(ctx, all...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("point/oneshot", oneshot(prepPointLit))
	b.Run("point/cached", cached(prepPointLit))
	b.Run("point/prepared", prepared(prepPointSQL, 77))
	b.Run("q1/oneshot", oneshot(prepQ1Lit))
	b.Run("q1/cached", cached(prepQ1Lit))
	b.Run("q1/prepared", prepared(prepQ1SQL, 25, 24.0))
}

// BenchmarkEngineExecute isolates plan execution (no estimation) serial
// vs parallel on the engine.
func BenchmarkEngineExecute(b *testing.B) {
	n := query1PlanForBench(b, 20000)
	for _, w := range []int{1, 2, 4, 8} {
		name := "serial"
		if w > 1 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			eng := engine.New(engine.Config{Workers: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ExecuteBatch(n, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoin isolates the engine's hash join (no estimation) on
// TPC-H-shaped inputs: lineitem ⋈ orders through the open-addressing join
// table, serial and parallel, unsampled and in join_estimate's sampled
// shape. Allocations are the headline: the dictionary/hash scheme
// materializes no per-row keys, and sampled inputs reach the join as
// selections over the scans, so only the joined rows are ever gathered.
func BenchmarkJoin(b *testing.B) {
	tb, err := tpch.Generate(tpch.Config{Orders: 10000, Customers: 1000, Parts: 200, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	p := &plan.Join{
		Left:     &plan.Scan{Rel: tb.Lineitem},
		Right:    &plan.Scan{Rel: tb.Orders},
		LeftCol:  "l_orderkey",
		RightCol: "o_orderkey",
	}
	run := func(p plan.Node, workers int) func(*testing.B) {
		return func(b *testing.B) {
			eng := engine.New(engine.Config{Workers: workers})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := eng.ExecuteBatch(p, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				out.Release()
			}
		}
	}
	b.Run("columnar/serial", run(p, 1))
	b.Run("columnar/workers=4", run(p, 4))
	// join_estimate's plan, Bernoulli 20 % ⋈ Bernoulli 50 % + predicate
	// over pruned scans, at a scale where each sampled side runs past the
	// pooled buffer sizes (≈ 40 k and 23 k rows).
	big, err := tpch.Generate(tpch.Config{Orders: 50000, Customers: 5000, Parts: 2000, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	bernL, _ := sampling.NewBernoulli("lineitem", 0.2)
	bernO, _ := sampling.NewBernoulli("orders", 0.5)
	sampled := &plan.Join{
		Left: &plan.Sample{
			Input:  &plan.Scan{Rel: big.Lineitem, Cols: []string{"l_orderkey", "l_extendedprice", "l_discount"}},
			Method: bernL,
		},
		Right: &plan.Select{
			Input: &plan.Sample{
				Input:  &plan.Scan{Rel: big.Orders, Cols: []string{"o_orderkey", "o_totalprice"}},
				Method: bernO,
			},
			Pred: expr.Gt(expr.Col("o_totalprice"), expr.Float(1000)),
		},
		LeftCol:  "l_orderkey",
		RightCol: "o_orderkey",
	}
	b.Run("sampled", run(sampled, 2))
}

// BenchmarkGroupBy measures a grouped aggregate end to end (parse, plan,
// fused scan, typed-grouper partitioning, per-group estimation) — the
// GROUP BY half of the zero-allocation keyed hot path.
func BenchmarkGroupBy(b *testing.B) {
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 20000, Customers: 2000, Parts: 500, Seed: 3}); err != nil {
		b.Fatal(err)
	}
	const sql = `
SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue, COUNT(*) AS n
FROM lineitem TABLESAMPLE (25 PERCENT)
WHERE l_quantity < 30.0
GROUP BY l_linenumber`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql, WithWorkers(1), WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin isolates the join operator on TPC-H-shaped inputs.
func BenchmarkHashJoin(b *testing.B) {
	tb, err := tpch.Generate(tpch.Config{Orders: 10000, Customers: 1000, Parts: 200, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	l, err := ops.FromRelation(tb.Lineitem, "")
	if err != nil {
		b.Fatal(err)
	}
	r, err := ops.FromRelation(tb.Orders, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.HashJoin(l, r, "l_orderkey", "o_orderkey"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGUSAlgebra measures the raw algebra operations on 8-relation
// parameter sets — the per-step cost inside the rewriter.
func BenchmarkGUSAlgebra(b *testing.B) {
	mk := func(tag string) *core.Params {
		g, err := core.Bernoulli(tag+"0", 0.5)
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i < 8; i++ {
			next, err := core.Bernoulli(fmt.Sprintf("%s%d", tag, i), 0.3)
			if err != nil {
				b.Fatal(err)
			}
			if g, err = core.Compose(g, next); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	g1 := mk("x")
	g2 := mk("x")
	g3 := mk("y")
	b.Run("compact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Compact(g1, g2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Union(g1, g2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Join(g1, g3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g1.CS()
		}
	})
}

// BenchmarkProgressive measures online aggregation's time-to-accuracy on
// a TPC-H Q1-style revenue aggregate (~120k lineitems):
//
//   - to-1pct-ci    — QueryProgressive with WithTargetRelativeCI(0.01):
//     stops as soon as the CI half-width is within 1% of the estimate
//     (the "%scanned" metric reports how much data that took);
//   - full-stream   — the same stream run to completion (its final
//     update is bit-identical to Query);
//   - one-shot      — plain Query, the baseline all of it converges to.
//
// The headline is to-1pct-ci wall-clock versus one-shot, i.e. what an
// accuracy budget saves over a full scan.
func BenchmarkProgressive(b *testing.B) {
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 30000, Customers: 3000, Parts: 750, Seed: 31}); err != nil {
		b.Fatal(err)
	}
	const sql = `
SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue
FROM lineitem TABLESAMPLE (90 PERCENT)
WHERE l_quantity < 45.0`
	stream := func(opts ...Option) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var frac float64
			for i := 0; i < b.N; i++ {
				ch, wait := db.QueryProgressive(context.Background(), sql,
					append([]Option{WithSeed(7)}, opts...)...)
				var last Update
				for u := range ch {
					last = u
				}
				if err := wait(); err != nil {
					b.Fatal(err)
				}
				frac = last.FractionScanned
			}
			b.ReportMetric(100*frac, "%scanned")
		}
	}
	b.Run("to-1pct-ci", stream(WithTargetRelativeCI(0.01)))
	b.Run("full-stream", stream())
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(sql, WithSeed(7)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100, "%scanned")
	})
}

// BenchmarkTraceOverhead quantifies the tracing tax on the BenchmarkQuery
// join shape: `off` is the production path (nil trace — every span site
// is one pointer test), `on` attaches a fresh Trace per query. Compare
// the two sub-benchmarks to price WithTrace; compare `off` against
// BenchmarkQuery history to confirm the disabled path stayed within the
// ≤2% regression budget (TestTraceOverheadGuard holds the allocation
// half of that contract).
func BenchmarkTraceOverhead(b *testing.B) {
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 20000, Customers: 2000, Parts: 500, Seed: 3}); err != nil {
		b.Fatal(err)
	}
	const sql = `
SELECT SUM(l_discount*(1.0-l_tax))
FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(sql, WithSeed(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := &Trace{}
			if _, err := db.Query(sql, WithSeed(uint64(i)), WithTrace(tr)); err != nil {
				b.Fatal(err)
			}
			if len(tr.Spans) == 0 {
				b.Fatal("no spans recorded")
			}
		}
	})
}

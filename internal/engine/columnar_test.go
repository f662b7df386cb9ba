package engine

import (
	"fmt"
	"testing"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/sampling"
)

// columnarPlans is a plan suite covering every columnar operator: fused
// scan→sample→select→project chains, WOR, joins, θ-joins, union/intersect,
// and non-fusable shapes (sample above select, stacked samples).
func columnarPlans(t *testing.T, orders int) map[string]plan.Node {
	t.Helper()
	tb := genTables(t, orders)
	bern, _ := sampling.NewBernoulli("lineitem", 0.2)
	bernO, _ := sampling.NewBernoulli("orders", 0.5)
	wor, _ := sampling.NewWOR("orders", 200)
	blk, _ := sampling.NewBlock("lineitem", 16, 0.3)
	lh, _ := sampling.NewLineageHash(5, map[string]float64{"orders": 0.5})
	lh2, _ := sampling.NewLineageHash(6, map[string]float64{"orders": 0.5})

	fused := &plan.Project{
		Input: &plan.Select{
			Input: &plan.Select{
				Input: &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: bern},
				Pred:  expr.Gt(expr.Col("l_extendedprice"), expr.Float(80)),
			},
			Pred: expr.Lt(expr.Col("l_quantity"), expr.Float(40)),
		},
		Names: []string{"v", "q"},
		Exprs: []expr.Expr{
			expr.Mul(expr.Col("l_discount"), expr.Sub(expr.Float(1), expr.Col("l_tax"))),
			expr.Col("l_quantity"),
		},
	}
	return map[string]plan.Node{
		"fused-scan-sample-select-project": fused,
		"fused-block": &plan.Select{
			Input: &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: blk},
			Pred:  expr.Gt(expr.Col("l_extendedprice"), expr.Float(50)),
		},
		"wor-then-select": &plan.Select{
			Input: &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: wor},
			Pred:  expr.Gt(expr.Col("o_totalprice"), expr.Float(10)),
		},
		"sample-above-select": &plan.Sample{
			Input: &plan.Select{
				Input: &plan.Scan{Rel: tb.Orders},
				Pred:  expr.Gt(expr.Col("o_totalprice"), expr.Float(100)),
			},
			Method: bernO,
		},
		"query1-join": query1Plan(tb),
		"theta-sampled": &plan.Theta{
			Left:  &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: wor},
			Right: &plan.Scan{Rel: tb.Customer},
			Pred: expr.And(
				expr.Eq(expr.Col("o_custkey"), expr.Col("c_custkey")),
				expr.Gt(expr.Col("c_acctbal"), expr.Float(0))),
		},
		"union": &plan.Union{
			Left:  &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: lh},
			Right: &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: lh2},
		},
		"intersect": &plan.Intersect{
			Left:  &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: lh},
			Right: &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: lh2},
		},
	}
}

// TestColumnarMatches is the engine's core sampled regression: for every
// plan shape, seed and worker count, ExecuteBatch must produce exactly the
// rows (values, lineage and order) the serial reference plan.Execute
// produces. Both executors decide every sample by the methods' keep rules
// under the same per-node sub-seeds, so the reference is a live oracle for
// sampled plans.
func TestColumnarMatches(t *testing.T) {
	matchesReference(t, columnarPlans(t, 1500))
}

// TestColumnarMatchesSerialOracle: for sampling-free plans — the shapes
// GROUP BY and θ-join queries execute — the columnar path must reproduce
// the serial plan.Execute reference row for row.
func TestColumnarMatchesSerialOracle(t *testing.T) {
	tb := genTables(t, 1000)
	matchesReference(t, map[string]plan.Node{
		// The pre-aggregation plan of a GROUP BY query: selected scan with
		// the grouping column intact.
		"groupby-shape": &plan.Select{
			Input: &plan.Scan{Rel: tb.Lineitem},
			Pred:  expr.Gt(expr.Col("l_extendedprice"), expr.Float(50)),
		},
		"groupby-over-join": &plan.Select{
			Input: &plan.Join{
				Left:     &plan.Scan{Rel: tb.Lineitem},
				Right:    &plan.Scan{Rel: tb.Orders},
				LeftCol:  "l_orderkey",
				RightCol: "o_orderkey",
			},
			Pred: expr.Gt(expr.Col("l_quantity"), expr.Float(5)),
		},
		"theta": &plan.Theta{
			Left:  &plan.Scan{Rel: tb.Orders, Alias: "o"},
			Right: &plan.Scan{Rel: tb.Customer, Alias: "c"},
			Pred:  expr.Eq(expr.Col("o_custkey"), expr.Col("c_custkey")),
		},
		"theta-nonequi": &plan.Theta{
			Left:  &plan.Scan{Rel: tb.Customer, Alias: "a"},
			Right: &plan.Scan{Rel: tb.Part, Alias: "b"},
			Pred:  expr.Lt(expr.Col("c_acctbal"), expr.Col("p_retailprice")),
		},
		"project-empty-input": &plan.Project{
			Input: &plan.Select{
				Input: &plan.Scan{Rel: tb.Orders},
				Pred:  expr.Lt(expr.Col("o_totalprice"), expr.Float(-1)),
			},
			Names: []string{"x"},
			Exprs: []expr.Expr{expr.Add(expr.Col("o_orderkey"), expr.Int(1))},
		},
	})
}

// matchesReference checks, for every plan, seeds 1 and 2 and worker counts
// 1, 2, 4 and 8, that ExecuteBatch reproduces plan.Execute row for row.
func matchesReference(t *testing.T, plans map[string]plan.Node) {
	t.Helper()
	for name, p := range plans {
		for seed := uint64(1); seed <= 2; seed++ {
			key := fmt.Sprintf("%s seed=%d", name, seed)
			want, err := plan.Execute(p, seed)
			if err != nil {
				t.Fatalf("%s: reference: %v", key, err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				got, err := execRows(New(Config{Workers: w, PartitionSize: 64, SerialCutoff: 1}), p, seed)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, w, err)
				}
				sameRows(t, fmt.Sprintf("%s workers=%d", key, w), want, got)
			}
		}
	}
}

// TestPartitionSizeInvariance: no sampling decision depends on the
// partitioning, so sampled output is identical at any partition size —
// one-shot, and concatenated from waves. Partitions of 37 and 100 rows
// (and waves of two of them) end inside the 64-row words the row-keyed
// rule decides together, and inside SYSTEM blocks.
func TestPartitionSizeInvariance(t *testing.T) {
	tb := genTables(t, 1500)
	bern, _ := sampling.NewBernoulli("lineitem", 0.3)
	blk, _ := sampling.NewBlock("lineitem", 8, 0.4)
	wor, _ := sampling.NewWOR("lineitem", 700)
	res := &sampling.Residual{Rel: "lineitem", P: 0.2, Q: 0.5}
	scan := func(m sampling.Method) plan.Node {
		return &plan.Select{
			Input: &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: m},
			Pred:  expr.Gt(expr.Col("l_extendedprice"), expr.Float(50)),
		}
	}
	plans := map[string]plan.Node{
		"bernoulli": scan(bern),
		"system":    scan(blk),
		"wor":       scan(wor),
		"residual":  scan(res),
	}
	for name, p := range plans {
		for seed := uint64(1); seed <= 2; seed++ {
			key := fmt.Sprintf("%s seed=%d", name, seed)
			want, err := execRows(New(Config{Workers: 2, PartitionSize: 64, SerialCutoff: 1}), p, seed)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			for _, ps := range []int{37, 100, 1000, 4096} {
				e := New(Config{Workers: 2, PartitionSize: ps, SerialCutoff: 1})
				got, err := execRows(e, p, seed)
				if err != nil {
					t.Fatalf("%s partition=%d: %v", key, ps, err)
				}
				sameRows(t, fmt.Sprintf("%s partition=%d", key, ps), want, got)
				if name == "wor" {
					continue // WOR keeps a global bottom K: no waves
				}
				sameRows(t, fmt.Sprintf("%s partition=%d waves", key, ps), want, waveRows(t, e, p, seed, 2))
			}
		}
	}
}

// unknownMethod is a sampling.Method the engine has no kernel for.
type unknownMethod struct{ sampling.Method }

// TestColumnarErrors: invalid plans are rejected, not executed.
func TestColumnarErrors(t *testing.T) {
	tb := genTables(t, 300)
	blk, _ := sampling.NewBlock("lineitem", 16, 0.5)
	bern, _ := sampling.NewBernoulli("orders", 0.5)
	join := &plan.Join{
		Left: &plan.Scan{Rel: tb.Lineitem}, Right: &plan.Scan{Rel: tb.Orders},
		LeftCol: "l_orderkey", RightCol: "o_orderkey",
	}
	bad := map[string]plan.Node{
		"unknown-column": &plan.Select{
			Input: &plan.Scan{Rel: tb.Orders},
			Pred:  expr.Gt(expr.Col("nope"), expr.Float(0)),
		},
		"unknown-join-col": &plan.Join{
			Left: &plan.Scan{Rel: tb.Orders}, Right: &plan.Scan{Rel: tb.Customer},
			LeftCol: "nope", RightCol: "c_custkey",
		},
		"block-above-join": &plan.Sample{Input: join, Method: blk},
		// Rows sharing an orders tuple would be kept independently: b_orders
		// would be p², not Figure 1's p.
		"bernoulli-above-join": &plan.Sample{Input: join, Method: bern},
		"unknown-method": &plan.Sample{
			Input:  &plan.Scan{Rel: tb.Orders},
			Method: unknownMethod{bern},
		},
		"division-by-zero": &plan.Select{
			Input: &plan.Scan{Rel: tb.Orders},
			Pred: expr.Gt(expr.Div(expr.Col("o_totalprice"),
				expr.Sub(expr.Col("o_orderkey"), expr.Col("o_orderkey"))), expr.Float(0)),
		},
	}
	// Sampling runs before the predicate: a zero divisor on a row the
	// Bernoulli stage keeps is an error, one on a row it rejects is never
	// evaluated. The keys come from the same plan shape (same node numbers,
	// same draws) with an always-true predicate.
	sampled := func(pred expr.Expr) plan.Node {
		return &plan.Select{Input: &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: bern}, Pred: pred}
	}
	out, err := New(Config{Workers: 4}).ExecuteBatch(sampled(expr.Eq(expr.Col("o_orderkey"), expr.Col("o_orderkey"))), 1)
	if err != nil {
		t.Fatal(err)
	}
	keyCol, _ := out.Schema.Index("o_orderkey")
	kept := map[int64]bool{}
	for _, k := range out.Cols[keyCol].I {
		kept[k] = true
	}
	keptKey, droppedKey := int64(-1), int64(-1)
	for i := 0; i < tb.Orders.Len(); i++ {
		k, _ := tb.Orders.Row(i)[keyCol].AsInt()
		if kept[k] {
			keptKey = k
		} else {
			droppedKey = k
		}
	}
	if keptKey < 0 || droppedKey < 0 {
		t.Fatalf("Bernoulli(0.5) kept %d of %d orders; need a kept and a rejected row", len(kept), tb.Orders.Len())
	}
	zeroAt := func(key int64) expr.Expr {
		return expr.Gt(expr.Div(expr.Col("o_totalprice"),
			expr.Sub(expr.Col("o_orderkey"), expr.Int(key))), expr.Float(0))
	}
	bad["division-by-zero-on-sampled-row"] = sampled(zeroAt(keptKey))
	for name, p := range bad {
		if _, err := New(Config{Workers: 4}).ExecuteBatch(p, 1); err == nil {
			t.Errorf("%s: engine accepted invalid plan", name)
		}
	}
	if _, err := New(Config{Workers: 4}).ExecuteBatch(sampled(zeroAt(droppedKey)), 1); err != nil {
		t.Errorf("division by zero only on a rejected row: %v", err)
	}
}

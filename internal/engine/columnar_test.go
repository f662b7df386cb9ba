package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
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

// rowsDigest is a SHA-256 over a canonical rendering of a result: column
// names and kinds, lineage schema names, then every row's lineage IDs and values in
// order, floats as their IEEE-754 bit patterns.
func rowsDigest(rows *ops.Rows) string {
	h := sha256.New()
	fmt.Fprintf(h, "cols %v lineage %q\n", rows.Cols.Columns(), rows.LSch.Names())
	for _, r := range rows.Data {
		fmt.Fprint(h, r.Lin)
		for _, v := range r.Vals {
			if v.Kind() == relation.KindFloat {
				f, _ := v.AsFloat()
				fmt.Fprintf(h, " f%016x", math.Float64bits(f))
			} else {
				fmt.Fprintf(h, " %s", v.Key())
			}
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestColumnarMatches is the engine's core sampled regression: for every
// plan shape, seed and worker count, ExecuteBatch must produce exactly the
// rows — values, lineage and order — that the parallel row-at-a-time
// executor produced before it was deleted, frozen in frozenRowPath.
// plan.Execute cannot stand in: it draws from one sequential stream, so it
// matches the engine only on sampling-free plans (see
// TestColumnarMatchesSerialOracle). A live sampled oracle returns when
// ROADMAP's counter-based draws make plan.Execute able to replay the
// engine's decisions.
func TestColumnarMatches(t *testing.T) {
	for name, p := range columnarPlans(t, 1500) {
		for seed := uint64(1); seed <= 2; seed++ {
			key := fmt.Sprintf("%s seed=%d", name, seed)
			for _, w := range []int{1, 2, 4, 8} {
				rows, err := execRows(New(Config{Workers: w, PartitionSize: 64, SerialCutoff: 1}), p, seed)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, w, err)
				}
				if d := rowsDigest(rows); d != frozenRowPath[key] {
					t.Errorf("%q workers=%d: digest %s, frozen %s", key, w, d, frozenRowPath[key])
				}
			}
		}
	}
}

// TestColumnarMatchesSerialOracle: for sampling-free plans — the shapes
// GROUP BY and θ-join queries execute — the columnar path must reproduce
// the serial plan.Execute reference row for row.
func TestColumnarMatchesSerialOracle(t *testing.T) {
	tb := genTables(t, 1000)
	plans := map[string]plan.Node{
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
	}
	for name, p := range plans {
		want, err := plan.Execute(p, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		b, err := New(Config{Workers: 4, PartitionSize: 128, SerialCutoff: 1}).ExecuteBatch(p, 1)
		if err != nil {
			t.Fatalf("%s: columnar: %v", name, err)
		}
		sameRows(t, name, want, b.ToRows())
	}
}

// unknownMethod is a sampling.Method the engine has no kernel for.
type unknownMethod struct{ sampling.Method }

// TestColumnarErrors: invalid plans are rejected, not executed.
func TestColumnarErrors(t *testing.T) {
	tb := genTables(t, 300)
	blk, _ := sampling.NewBlock("lineitem", 16, 0.5)
	bern, _ := sampling.NewBernoulli("orders", 0.5)
	bad := map[string]plan.Node{
		"unknown-column": &plan.Select{
			Input: &plan.Scan{Rel: tb.Orders},
			Pred:  expr.Gt(expr.Col("nope"), expr.Float(0)),
		},
		"unknown-join-col": &plan.Join{
			Left: &plan.Scan{Rel: tb.Orders}, Right: &plan.Scan{Rel: tb.Customer},
			LeftCol: "nope", RightCol: "c_custkey",
		},
		"block-above-join": &plan.Sample{
			Input: &plan.Join{
				Left: &plan.Scan{Rel: tb.Lineitem}, Right: &plan.Scan{Rel: tb.Orders},
				LeftCol: "l_orderkey", RightCol: "o_orderkey",
			},
			Method: blk,
		},
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
	for name, p := range bad {
		if _, err := New(Config{Workers: 4}).ExecuteBatch(p, 1); err == nil {
			t.Errorf("%s: engine accepted invalid plan", name)
		}
	}
}

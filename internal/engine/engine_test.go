package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/tpch"
)

func genTables(t testing.TB, orders int) *tpch.Tables {
	t.Helper()
	tb, err := tpch.Generate(tpch.Config{Orders: orders, Customers: orders / 10, Parts: orders / 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// query1Plan is the paper's Query 1 shape: two sampled scans, hash join,
// selection.
func query1Plan(tb *tpch.Tables) plan.Node {
	bern, _ := sampling.NewBernoulli("lineitem", 0.1)
	wor, _ := sampling.NewWOR("orders", 500)
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

// execRows runs p and renders the batch in the reference executor's row
// representation, for comparison against plan.Execute and ops.*.
func execRows(e *Engine, p plan.Node, seed uint64) (*ops.Rows, error) {
	b, err := e.ExecuteBatch(p, seed)
	if err != nil {
		return nil, err
	}
	return b.ToRows(), nil
}

func sameRows(t *testing.T, label string, a, b *ops.Rows) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d rows", label, a.Len(), b.Len())
	}
	if !a.Cols.Equal(b.Cols) {
		t.Fatalf("%s: column schemas differ", label)
	}
	if !a.LSch.Equal(b.LSch) {
		t.Fatalf("%s: lineage schemas differ", label)
	}
	for i := range a.Data {
		if !a.Data[i].Lin.Equal(b.Data[i].Lin) {
			t.Fatalf("%s: row %d lineage %v vs %v", label, i, a.Data[i].Lin, b.Data[i].Lin)
		}
		for j := range a.Data[i].Vals {
			if av, bv := a.Data[i].Vals[j], b.Data[i].Vals[j]; av != bv && !bothNaN(av, bv) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j,
					a.Data[i].Vals[j], b.Data[i].Vals[j])
			}
		}
	}
}

// bothNaN reports whether a and b are both float NaNs, which sameRows
// counts as equal: NaN join keys match each other, so joined rows carry
// them.
func bothNaN(a, b relation.Value) bool {
	if a.Kind() != relation.KindFloat || b.Kind() != relation.KindFloat {
		return false
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	return math.IsNaN(af) && math.IsNaN(bf)
}

// TestDeterministicAcrossWorkerCounts is the engine's core contract:
// identical rows (values, lineage, ORDER) at any worker count, with small
// partitions so multi-partition paths actually engage.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	tb := genTables(t, 2000)
	lh, _ := sampling.NewLineageHash(13, map[string]float64{"lineitem": 0.4, "orders": 0.6})
	blk, _ := sampling.NewBlock("lineitem", 16, 0.3)
	plans := map[string]plan.Node{
		"query1": query1Plan(tb),
		"block":  &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: blk},
		"lineage-hash": &plan.Sample{
			Input: &plan.Join{
				Left:     &plan.Scan{Rel: tb.Lineitem},
				Right:    &plan.Scan{Rel: tb.Orders},
				LeftCol:  "l_orderkey",
				RightCol: "o_orderkey",
			},
			Method: lh,
		},
		"project": &plan.Project{
			Input: query1Plan(tb),
			Names: []string{"v"},
			Exprs: []expr.Expr{expr.Mul(expr.Col("l_discount"), expr.Sub(expr.Float(1), expr.Col("l_tax")))},
		},
	}
	for name, p := range plans {
		ref, err := execRows(New(Config{Workers: 1, PartitionSize: 64, SerialCutoff: 1}), p, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref.Len() == 0 {
			t.Fatalf("%s: empty reference result", name)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := execRows(New(Config{Workers: w, PartitionSize: 64, SerialCutoff: 1}), p, 42)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			sameRows(t, fmt.Sprintf("%s workers=%d", name, w), ref, got)
		}
	}
}

// TestMatchesSerialExecutorWithoutSampling: for sampling-free plans the
// engine must reproduce plan.Execute row for row.
func TestMatchesSerialExecutorWithoutSampling(t *testing.T) {
	tb := genTables(t, 1200)
	matchesReference(t, map[string]plan.Node{
		"scan": &plan.Scan{Rel: tb.Orders},
		"join-select": &plan.Select{
			Input: &plan.Join{
				Left:     &plan.Scan{Rel: tb.Lineitem},
				Right:    &plan.Scan{Rel: tb.Orders},
				LeftCol:  "l_orderkey",
				RightCol: "o_orderkey",
			},
			Pred: expr.Gt(expr.Col("l_extendedprice"), expr.Float(50)),
		},
		"theta": &plan.Theta{
			Left:  &plan.Scan{Rel: tb.Orders, Alias: "o"},
			Right: &plan.Scan{Rel: tb.Customer, Alias: "c"},
			Pred:  expr.Eq(expr.Col("o_custkey"), expr.Col("c_custkey")),
		},
	})
}

// TestWORDrawsExactlyK checks the priority-selection WOR: exact sample
// size, rows kept in input order, uniform coverage sanity.
func TestWORDrawsExactlyK(t *testing.T) {
	tb := genTables(t, 1000)
	wor, _ := sampling.NewWOR("orders", 123)
	p := &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: wor}
	rows, err := execRows(New(Config{Workers: 4, PartitionSize: 64, SerialCutoff: 1}), p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 123 {
		t.Fatalf("WOR drew %d rows, want 123", rows.Len())
	}
	// Input order preserved: lineage IDs strictly increasing (sequential
	// TPC-H order IDs).
	for i := 1; i < rows.Len(); i++ {
		if rows.Data[i].Lin[0] <= rows.Data[i-1].Lin[0] {
			t.Fatalf("WOR output out of input order at %d", i)
		}
	}
	// Different seeds draw different subsets.
	rows2, err := execRows(New(Config{Workers: 4, PartitionSize: 64, SerialCutoff: 1}), p, 10)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	seen := map[uint64]bool{}
	for _, r := range rows.Data {
		seen[uint64(r.Lin[0])] = true
	}
	for _, r := range rows2.Data {
		if seen[uint64(r.Lin[0])] {
			same++
		}
	}
	if same == 123 {
		t.Fatal("different seeds drew identical WOR samples")
	}
	// K ≥ N keeps everything.
	worAll, _ := sampling.NewWOR("orders", 10_000_000)
	all, err := execRows(New(Config{}), &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: worAll}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != tb.Orders.Len() {
		t.Fatalf("WOR(K≥N) kept %d of %d", all.Len(), tb.Orders.Len())
	}
}

// TestBernoulliRate sanity-checks the row-keyed Bernoulli.
func TestBernoulliRate(t *testing.T) {
	tb := genTables(t, 4000)
	bern, _ := sampling.NewBernoulli("lineitem", 0.25)
	p := &plan.Sample{Input: &plan.Scan{Rel: tb.Lineitem}, Method: bern}
	rows, err := execRows(New(Config{Workers: 4, PartitionSize: 256, SerialCutoff: 1}), p, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.Lineitem.Len()
	got := float64(rows.Len()) / float64(n)
	if got < 0.2 || got > 0.3 {
		t.Fatalf("Bernoulli(0.25) kept %.3f of %d rows", got, n)
	}
}

// TestBlockLineageRewrite: SYSTEM sampling must rewrite lineage to block
// IDs and keep whole blocks.
func TestBlockLineageRewrite(t *testing.T) {
	tb := genTables(t, 500)
	blk, _ := sampling.NewBlock("orders", 32, 0.5)
	p := &plan.Sample{Input: &plan.Scan{Rel: tb.Orders}, Method: blk}
	rows, err := execRows(New(Config{Workers: 3, PartitionSize: 50, SerialCutoff: 1}), p, 21)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 || rows.Len() == tb.Orders.Len() {
		t.Fatalf("degenerate block sample: %d of %d", rows.Len(), tb.Orders.Len())
	}
	counts := map[uint64]int{}
	for _, r := range rows.Data {
		counts[uint64(r.Lin[0])]++
	}
	for blkID, c := range counts {
		if c != 32 && blkID != uint64((tb.Orders.Len()+31)/32) {
			t.Fatalf("block %d kept partially: %d rows", blkID, c)
		}
	}
	// Applying SYSTEM above a join must fail, as in the serial method.
	bad := &plan.Sample{Input: &plan.Join{
		Left: &plan.Scan{Rel: tb.Lineitem}, Right: &plan.Scan{Rel: tb.Orders},
		LeftCol: "l_orderkey", RightCol: "o_orderkey"}, Method: blk}
	if _, err := execRows(New(Config{}), bad, 1); err == nil {
		t.Fatal("SYSTEM sampling above a join accepted")
	}
}

// TestUnionIntersect exercises the lineage set operators through the
// engine.
func TestUnionIntersect(t *testing.T) {
	tb := genTables(t, 800)
	b1, _ := sampling.NewLineageHash(1, map[string]float64{"orders": 0.5})
	b2, _ := sampling.NewLineageHash(2, map[string]float64{"orders": 0.5})
	scan := func() plan.Node { return &plan.Scan{Rel: tb.Orders} }
	u := &plan.Union{
		Left:  &plan.Sample{Input: scan(), Method: b1},
		Right: &plan.Sample{Input: scan(), Method: b2},
	}
	i := &plan.Intersect{
		Left:  &plan.Sample{Input: scan(), Method: b1},
		Right: &plan.Sample{Input: scan(), Method: b2},
	}
	eng := New(Config{Workers: 4, PartitionSize: 64, SerialCutoff: 1})
	ur, err := execRows(eng, u, 7)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := execRows(eng, i, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Len() <= ir.Len() {
		t.Fatalf("union %d ≤ intersect %d", ur.Len(), ir.Len())
	}
	seen := map[string]bool{}
	for _, r := range ur.Data {
		if seen[r.Lin.Key()] {
			t.Fatal("union emitted duplicate lineage")
		}
		seen[r.Lin.Key()] = true
	}
}

// TestErrorPropagation: operator errors must surface, not hang the pool.
func TestErrorPropagation(t *testing.T) {
	tb := genTables(t, 300)
	bad := &plan.Select{
		Input: &plan.Scan{Rel: tb.Orders},
		Pred:  expr.Gt(expr.Col("no_such_column"), expr.Float(0)),
	}
	if _, err := execRows(New(Config{Workers: 4}), bad, 1); err == nil {
		t.Fatal("unknown column accepted")
	}
	badJoin := &plan.Join{
		Left: &plan.Scan{Rel: tb.Orders}, Right: &plan.Scan{Rel: tb.Customer},
		LeftCol: "nope", RightCol: "c_custkey",
	}
	if _, err := execRows(New(Config{Workers: 4}), badJoin, 1); err == nil {
		t.Fatal("unknown join column accepted")
	}
}

// TestGUSPassThrough: quasi-operators must not change execution.
func TestGUSPassThrough(t *testing.T) {
	tb := genTables(t, 400)
	inner := plan.Node(&plan.Scan{Rel: tb.Orders})
	rowsPlain, err := execRows(New(Config{}), inner, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Robustness-style wrapping (§8) — G parameters are irrelevant here.
	wrapped := plan.Rewrite(inner, func(n plan.Node) plan.Node {
		if s, ok := n.(*plan.Scan); ok {
			return &plan.GUS{Input: s}
		}
		return n
	})
	rowsWrapped, err := execRows(New(Config{}), wrapped, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "gus pass-through", rowsPlain, rowsWrapped)
}

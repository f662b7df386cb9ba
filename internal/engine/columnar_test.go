package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/segment"
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

// matchesReference checks, for every plan, seeds 1 and 2, worker counts
// 1, 2, 4 and 8 and each partition size (64 when none is given), that
// ExecuteBatch reproduces plan.Execute row for row.
func matchesReference(t *testing.T, plans map[string]plan.Node, partSizes ...int) {
	t.Helper()
	if len(partSizes) == 0 {
		partSizes = []int{64}
	}
	for name, p := range plans {
		for seed := uint64(1); seed <= 2; seed++ {
			key := fmt.Sprintf("%s seed=%d", name, seed)
			want, err := plan.Execute(p, seed)
			if err != nil {
				t.Fatalf("%s: reference: %v", key, err)
			}
			for _, ps := range partSizes {
				for _, w := range []int{1, 2, 4, 8} {
					got, err := execRows(New(Config{Workers: w, PartitionSize: ps, SerialCutoff: 1}), p, seed)
					if err != nil {
						t.Fatalf("%s workers=%d partition=%d: %v", key, w, ps, err)
					}
					sameRows(t, fmt.Sprintf("%s workers=%d partition=%d", key, w, ps), want, got)
				}
			}
		}
	}
}

// keyRel builds a one-key relation: column key of the given kind holding
// vals (ints or floats), plus an int payload column payload = row index.
func keyRel(name, key string, kind relation.Kind, vals []float64) *relation.Relation {
	r := relation.MustNew(name, relation.MustSchema(
		relation.Column{Name: key, Kind: kind},
		relation.Column{Name: name + "_v", Kind: relation.KindInt},
	))
	for i, v := range vals {
		k := relation.Float(v)
		if kind == relation.KindInt {
			k = relation.Int(int64(v))
		}
		r.MustAppend(k, relation.Int(int64(i)))
	}
	return r
}

// TestColumnarMatchesLazyJoinInputs is the bit-identity matrix for hash
// join inputs. A fused chain without projection or SYSTEM sampling reaches
// the join as its scan's columns plus a selection; every other input
// arrives materialized. Whichever way each side arrives, and whichever side
// the join builds on, the output must be plan.Execute's row for row —
// including empty sides, multi-row build chains, dictionary-encoded
// string keys, int ⋈ float keys, NaN/−0 keys and a join of a join.
func TestColumnarMatchesLazyJoinInputs(t *testing.T) {
	tb := genTables(t, 1500)
	bern := func(rel string, p float64) sampling.Method {
		m, err := sampling.NewBernoulli(rel, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	blk, _ := sampling.NewBlock("lineitem", 16, 0.3)
	lhL, _ := sampling.NewLineageHash(5, map[string]float64{"lineitem": 0.4})
	lhO, _ := sampling.NewLineageHash(6, map[string]float64{"orders": 0.6})
	chain := func(rel *relation.Relation, m sampling.Method, preds ...expr.Expr) plan.Node {
		var n plan.Node = &plan.Scan{Rel: rel}
		if m != nil {
			n = &plan.Sample{Input: n, Method: m}
		}
		for _, p := range preds {
			n = &plan.Select{Input: n, Pred: p}
		}
		return n
	}
	join := func(l, r plan.Node, lc, rc string) plan.Node {
		return &plan.Join{Left: l, Right: r, LeftCol: lc, RightCol: rc}
	}
	li := func(m sampling.Method, preds ...expr.Expr) plan.Node { return chain(tb.Lineitem, m, preds...) }
	ord := func(m sampling.Method, preds ...expr.Expr) plan.Node { return chain(tb.Orders, m, preds...) }
	liPred := expr.Gt(expr.Col("l_extendedprice"), expr.Float(50))
	oPred := expr.Gt(expr.Col("o_totalprice"), expr.Float(1000))
	never := expr.Lt(expr.Col("o_totalprice"), expr.Float(-1))

	// String keys: 40 distinct values, each on several rows of both sides.
	sl := relation.MustNew("sl", relation.MustSchema(
		relation.Column{Name: "sk", Kind: relation.KindString},
		relation.Column{Name: "sv", Kind: relation.KindInt},
	))
	sr := relation.MustNew("sr", relation.MustSchema(
		relation.Column{Name: "rk", Kind: relation.KindString},
		relation.Column{Name: "rv", Kind: relation.KindInt},
	))
	for i := 0; i < 300; i++ {
		sl.MustAppend(relation.String_(fmt.Sprintf("k%02d", i%40)), relation.Int(int64(i)))
		sr.MustAppend(relation.String_(fmt.Sprintf("k%02d", (i*7)%45)), relation.Int(int64(i)))
	}
	// Float keys against orders' int keys: integral values match, halves
	// and NaN never do.
	var fk []float64
	for i := 0; i < 400; i++ {
		v := float64(i%300 + 1)
		switch i % 5 {
		case 3:
			v += 0.5
		case 4:
			v = math.NaN()
		}
		fk = append(fk, v)
	}
	// NaN and ±0 on both sides: NaN keys match each other and −0 matches 0,
	// as the reference's FloatKey encoding has it.
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, math.Inf(1), math.Inf(-1), 2.5}
	var fa, fb []float64
	for i := 0; i < 120; i++ {
		fa = append(fa, special[i%len(special)])
		fb = append(fb, special[(i*3)%len(special)])
	}
	fkRel := keyRel("fk", "fkey", relation.KindFloat, fk)
	faRel := keyRel("fa", "akey", relation.KindFloat, fa)
	fbRel := keyRel("fb", "bkey", relation.KindFloat, fb)

	plans := map[string]plan.Node{
		"bernoulli-build-right": join(li(bern("lineitem", 0.2)), ord(bern("orders", 0.5), oPred), "l_orderkey", "o_orderkey"),
		"bernoulli-build-left":  join(ord(bern("orders", 0.1), oPred), li(bern("lineitem", 0.5)), "o_orderkey", "l_orderkey"),
		"predicates-only":       join(li(nil, liPred), ord(nil, oPred), "l_orderkey", "o_orderkey"),
		"system":                join(li(blk), ord(bern("orders", 0.5)), "l_orderkey", "o_orderkey"),
		"system-predicate":      join(ord(bern("orders", 0.2)), li(blk, liPred), "o_orderkey", "l_orderkey"),
		"lineage-hash":          join(li(lhL), ord(lhO, oPred), "l_orderkey", "o_orderkey"),
		"residual": join(li(&sampling.Residual{Rel: "lineitem", P: 0.2, Q: 0.5}, liPred),
			ord(&sampling.Residual{Rel: "orders", P: 0.3, Q: 0.6}), "l_orderkey", "o_orderkey"),
		"projected": join(&plan.Project{
			Input: li(bern("lineitem", 0.3), liPred),
			Names: []string{"lk", "rev"},
			Exprs: []expr.Expr{expr.Col("l_orderkey"), expr.Mul(expr.Col("l_extendedprice"), expr.Col("l_discount"))},
		}, ord(bern("orders", 0.5)), "lk", "o_orderkey"),
		"empty-left":  join(ord(bern("orders", 0.5), never), li(bern("lineitem", 0.2)), "o_orderkey", "l_orderkey"),
		"empty-right": join(li(bern("lineitem", 0.2)), ord(bern("orders", 0.5), never), "l_orderkey", "o_orderkey"),
		"empty-both":  join(ord(bern("orders", 0.5), never), li(nil, expr.Lt(expr.Col("l_quantity"), expr.Float(-1))), "o_orderkey", "l_orderkey"),
		// The build side is the smaller one: here orders (≈ 75 rows with
		// repeated custkeys) and lineitem (repeated orderkeys).
		"duplicate-build-keys-custkey":  join(chain(tb.Customer, bern("customer", 0.9)), ord(bern("orders", 0.05)), "c_custkey", "o_custkey"),
		"duplicate-build-keys-lineitem": join(ord(bern("orders", 0.9)), li(bern("lineitem", 0.1)), "o_orderkey", "l_orderkey"),
		"dictionary-string-key":         join(chain(sl, bern("sl", 0.7)), chain(sr, bern("sr", 0.5)), "sk", "rk"),
		"int-float-key":                 join(ord(bern("orders", 0.5)), chain(fkRel, bern("fk", 0.7)), "o_orderkey", "fkey"),
		"nan-negzero-key":               join(chain(faRel, bern("fa", 0.8)), chain(fbRel, bern("fb", 0.6)), "akey", "bkey"),
		"join-of-join": join(
			join(li(bern("lineitem", 0.3)), ord(bern("orders", 0.5), oPred), "l_orderkey", "o_orderkey"),
			chain(tb.Customer, bern("customer", 0.5)), "o_custkey", "c_custkey"),
	}
	for _, name := range []string{"empty-left", "empty-right", "empty-both"} {
		if rows, err := plan.Execute(plans[name], 1); err != nil || rows.Len() != 0 {
			t.Fatalf("%s: reference returned %v rows (err %v); the case needs an empty join", name, rows, err)
		}
	}
	matchesReference(t, plans, 37, 64, 100)
}

// TestColumnarMatchesZoneSkippedJoinSide: a segment-backed join input whose
// predicate lets zone maps skip partitions reaches the join as a selection
// with those partitions empty, and the join still matches the reference.
func TestColumnarMatchesZoneSkippedJoinSide(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zr.seg")
	if _, err := segment.Write(path, zoneRel(t, 10*relation.DefaultZoneRows)); err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Open("zr", path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var jk []float64
	for k := 0; k < 9000; k += 3 {
		jk = append(jk, float64(k))
	}
	bernZ, _ := sampling.NewBernoulli("zr", 0.3)
	bernJ, _ := sampling.NewBernoulli("zj", 0.8)
	p := &plan.Join{
		Left: &plan.Select{
			Input: &plan.Sample{Input: &plan.Scan{Rel: seg.Rel}, Method: bernZ},
			Pred:  expr.Lt(expr.Col("k"), expr.Int(6000)),
		},
		Right:    &plan.Sample{Input: &plan.Scan{Rel: keyRel("zj", "jk", relation.KindInt, jk)}, Method: bernJ},
		LeftCol:  "k",
		RightCol: "jk",
	}
	for seed := uint64(1); seed <= 2; seed++ {
		want, err := plan.Execute(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatal("reference join is empty; the case needs matches")
		}
		for _, w := range []int{1, 2, 4, 8} {
			e := New(Config{Workers: w, PartitionSize: relation.DefaultZoneRows, SerialCutoff: 1})
			got, err := execRows(e, p, seed)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("seed=%d workers=%d", seed, w), want, got)
			if e.PartitionsSkipped() == 0 {
				t.Fatalf("seed=%d workers=%d: no partition skipped; the case needs zone skipping", seed, w)
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

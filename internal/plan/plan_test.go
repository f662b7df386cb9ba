package plan

import (
	"math"
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
)

// fixtures builds small lineitem/orders/customer/part relations with the
// FK structure of the paper's running example. ordersN controls the orders
// cardinality because WOR's GUS translation depends on it.
func lineitemRel(t *testing.T, n, orders int) *relation.Relation {
	t.Helper()
	r := relation.MustNew("l", relation.MustSchema(
		relation.Column{Name: "l_orderkey", Kind: relation.KindInt},
		relation.Column{Name: "l_partkey", Kind: relation.KindInt},
		relation.Column{Name: "l_extendedprice", Kind: relation.KindFloat},
		relation.Column{Name: "l_discount", Kind: relation.KindFloat},
		relation.Column{Name: "l_tax", Kind: relation.KindFloat},
	))
	rng := stats.NewRNG(101)
	for i := 0; i < n; i++ {
		r.MustAppend(
			relation.Int(int64(rng.Intn(orders)+1)),
			relation.Int(int64(rng.Intn(50)+1)),
			relation.Float(50+200*rng.Float64()),
			relation.Float(0.1*rng.Float64()),
			relation.Float(0.08*rng.Float64()),
		)
	}
	return r
}

func ordersRel(t *testing.T, n int) *relation.Relation {
	t.Helper()
	r := relation.MustNew("o", relation.MustSchema(
		relation.Column{Name: "o_orderkey", Kind: relation.KindInt},
		relation.Column{Name: "o_custkey", Kind: relation.KindInt},
	))
	rng := stats.NewRNG(202)
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Int(int64(i+1)), relation.Int(int64(rng.Intn(20)+1)))
	}
	return r
}

func customerRel(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.MustNew("c", relation.MustSchema(
		relation.Column{Name: "c_custkey", Kind: relation.KindInt},
	))
	for i := 1; i <= 20; i++ {
		r.MustAppend(relation.Int(int64(i)))
	}
	return r
}

func partRel(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.MustNew("p", relation.MustSchema(
		relation.Column{Name: "p_partkey", Kind: relation.KindInt},
	))
	for i := 1; i <= 50; i++ {
		r.MustAppend(relation.Int(int64(i)))
	}
	return r
}

// query1Plan is the paper's Query 1 (Figure 2.a): lineitem TABLESAMPLE
// Bernoulli(0.1) joined with orders TABLESAMPLE WOR(1000), with the
// selection on l_extendedprice.
func query1Plan(t *testing.T, li, ord *relation.Relation) Node {
	t.Helper()
	bern, err := sampling.NewBernoulli("l", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	wor, err := sampling.NewWOR("o", 1000)
	if err != nil {
		t.Fatal(err)
	}
	return &Select{
		Input: &Join{
			Left:     &Sample{Input: &Scan{Rel: li}, Method: bern},
			Right:    &Sample{Input: &Scan{Rel: ord}, Method: wor},
			LeftCol:  "l_orderkey",
			RightCol: "o_orderkey",
		},
		Pred: expr.Gt(expr.Col("l_extendedprice"), expr.Float(100.0)),
	}
}

func TestAnalyzeQuery1MatchesExample3(t *testing.T) {
	li := lineitemRel(t, 50, 150000)
	ord := ordersRel(t, 150000)
	n := query1Plan(t, li, ord)
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	g := a.G
	s := g.Schema()
	if s.Len() != 2 || s.Name(0) != "l" || s.Name(1) != "o" {
		t.Fatalf("schema = %v", s.Names())
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 2e-3*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("a", g.A(), 6.667e-4)
	check("b_∅", g.B(0), 4.44e-7)
	check("b_o", g.B(s.MustSetOf("o")), 6.667e-5)
	check("b_l", g.B(s.MustSetOf("l")), 4.44e-6)
	check("b_lo", g.B(s.Full()), 6.667e-4)

	// Trace must mention the three rules used for Figure 2.
	trace := a.FormatTrace()
	for _, want := range []string{"§4.2", "Prop. 6", "Prop. 5"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestAnalyzeFigure4FullPlan(t *testing.T) {
	// Figure 4: ((l ⋈ o) ⋈ c) ⋈ p with B(0.1) on l, WOR(1000) on o,
	// B(0.5) on p, c unsampled.
	li := lineitemRel(t, 50, 150000)
	ord := ordersRel(t, 150000)
	cust := customerRel(t)
	part := partRel(t)
	bernL, _ := sampling.NewBernoulli("l", 0.1)
	worO, _ := sampling.NewWOR("o", 1000)
	bernP, _ := sampling.NewBernoulli("p", 0.5)
	n := &Join{
		Left: &Join{
			Left: &Join{
				Left:     &Sample{Input: &Scan{Rel: li}, Method: bernL},
				Right:    &Sample{Input: &Scan{Rel: ord}, Method: worO},
				LeftCol:  "l_orderkey",
				RightCol: "o_orderkey",
			},
			Right:    &Scan{Rel: cust},
			LeftCol:  "o_custkey",
			RightCol: "c_custkey",
		},
		Right:    &Sample{Input: &Scan{Rel: part}, Method: bernP},
		LeftCol:  "l_partkey",
		RightCol: "p_partkey",
	}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	g := a.G
	s := g.Schema()
	if got := s.Names(); len(got) != 4 {
		t.Fatalf("schema = %v", got)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 2e-3*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The paper's G(a123, b̄123) row (Figure 4 table).
	check("a123", g.A(), 3.334e-4)
	check("b_∅", g.B(0), 1.11e-7)
	check("b_p", g.B(s.MustSetOf("p")), 2.22e-7)
	check("b_c", g.B(s.MustSetOf("c")), 1.11e-7)
	check("b_cp", g.B(s.MustSetOf("c", "p")), 2.22e-7)
	check("b_o", g.B(s.MustSetOf("o")), 1.667e-5)
	check("b_op", g.B(s.MustSetOf("o", "p")), 3.335e-5)
	check("b_oc", g.B(s.MustSetOf("o", "c")), 1.667e-5)
	check("b_ocp", g.B(s.MustSetOf("o", "c", "p")), 3.335e-5)
	check("b_l", g.B(s.MustSetOf("l")), 1.11e-6)
	check("b_lp", g.B(s.MustSetOf("l", "p")), 2.22e-6)
	check("b_lc", g.B(s.MustSetOf("l", "c")), 1.11e-6)
	check("b_lcp", g.B(s.MustSetOf("l", "c", "p")), 2.22e-6)
	check("b_lo", g.B(s.MustSetOf("l", "o")), 1.667e-4)
	check("b_lop", g.B(s.MustSetOf("l", "o", "p")), 3.334e-4)
	check("b_loc", g.B(s.MustSetOf("l", "o", "c")), 1.667e-4)
	check("b_locp", g.B(s.Full()), 3.334e-4)
}

func TestAnalyzeFigure5SubsamplingPlan(t *testing.T) {
	// Figure 5: Query 1 with a bi-dimensional Bernoulli B(0.2,0.3)
	// lineage-hash sub-sampler stacked on top of the join.
	li := lineitemRel(t, 50, 150000)
	ord := ordersRel(t, 150000)
	inner := query1Plan(t, li, ord)
	sub, err := sampling.NewLineageHash(7, map[string]float64{"l": 0.2, "o": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	n := &Sample{Input: inner, Method: sub}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	g := a.G
	s := g.Schema()
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 2e-3*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The paper's G(a123, b̄123) row (Figure 5 table).
	check("a123", g.A(), 4e-5)
	check("b_∅", g.B(0), 1.598e-9)
	check("b_o", g.B(s.MustSetOf("o")), 8e-7)
	check("b_l", g.B(s.MustSetOf("l")), 7.992e-8)
	check("b_lo", g.B(s.Full()), 4e-5)
	if !strings.Contains(a.FormatTrace(), "Prop. 8") {
		t.Error("trace missing compaction step")
	}
}

func TestAnalyzeSchemaMatchesExecutionLineage(t *testing.T) {
	li := lineitemRel(t, 200, 100)
	ord := ordersRel(t, 100)
	n := query1Plan(t, li, ord)
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Execute(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.LSch.Equal(a.Schema()) {
		t.Fatalf("analysis schema %v ≠ execution schema %v", a.Schema().Names(), rows.LSch.Names())
	}
}

func TestAnalyzeUnsampledPlanIsIdentity(t *testing.T) {
	li := lineitemRel(t, 30, 100)
	ord := ordersRel(t, 100)
	n := StripSampling(query1Plan(t, li, ord))
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if !a.G.IsIdentity() {
		t.Errorf("unsampled plan analyzed to %v", a.G)
	}
	if len(a.Steps) != 0 {
		t.Errorf("identity analysis recorded %d steps", len(a.Steps))
	}
}

func TestAnalyzeRejectsSelfJoin(t *testing.T) {
	ord := ordersRel(t, 10)
	n := &Join{
		Left:     &Scan{Rel: ord},
		Right:    &Scan{Rel: ord},
		LeftCol:  "o_orderkey",
		RightCol: "o_orderkey",
	}
	if _, err := Analyze(n); err == nil {
		t.Error("self-join analysis accepted")
	}
}

func TestAnalyzeRejectsWOROverRandomInput(t *testing.T) {
	ord := ordersRel(t, 100)
	bern, _ := sampling.NewBernoulli("o", 0.5)
	wor, _ := sampling.NewWOR("o", 10)
	n := &Sample{Input: &Sample{Input: &Scan{Rel: ord}, Method: bern}, Method: wor}
	if _, err := Analyze(n); err == nil {
		t.Error("WOR over a randomized input accepted (cardinality is data-dependent)")
	}
	// The reverse — Bernoulli stacked on WOR — is fine (Prop. 8).
	n2 := &Sample{Input: &Sample{Input: &Scan{Rel: ord}, Method: wor}, Method: bern}
	a, err := Analyze(n2)
	if err != nil {
		t.Fatal(err)
	}
	wantA := 0.5 * 10.0 / 100.0
	if math.Abs(a.G.A()-wantA) > 1e-12 {
		t.Errorf("stacked a = %v, want %v", a.G.A(), wantA)
	}
}

func TestAnalyzeGUSNodeRobustness(t *testing.T) {
	// §8 "database as a sample": declare the stored lineitem to be a 99%
	// Bernoulli sample via a quasi-operator; no execution-time sampling.
	li := lineitemRel(t, 30, 100)
	g, err := core.Bernoulli("l", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	n := &GUS{Input: &Scan{Rel: li}, G: g}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.G.A()-0.99) > 1e-12 {
		t.Errorf("a = %v", a.G.A())
	}
	// Execution passes every tuple through.
	rows, err := Execute(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != li.Len() {
		t.Errorf("GUS node filtered rows at execution: %d of %d", rows.Len(), li.Len())
	}
}

func TestAnalyzeUnion(t *testing.T) {
	ord := ordersRel(t, 1000)
	mk := func(seed uint64, p float64) Node {
		m, err := sampling.NewLineageHash(seed, map[string]float64{"o": p})
		if err != nil {
			t.Fatal(err)
		}
		return &Sample{Input: &Scan{Rel: ord}, Method: m}
	}
	n := &Union{Left: mk(1, 0.3), Right: mk(2, 0.5)}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	wantA := 0.3 + 0.5 - 0.15
	if math.Abs(a.G.A()-wantA) > 1e-12 {
		t.Errorf("union a = %v, want %v", a.G.A(), wantA)
	}
	rows, err := Execute(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(rows.Len()) / float64(ord.Len())
	if math.Abs(rate-wantA) > 0.05 {
		t.Errorf("union kept %v of rows, want ≈%v", rate, wantA)
	}
}

func TestAnalyzeIntersect(t *testing.T) {
	ord := ordersRel(t, 1000)
	mk := func(seed uint64, p float64) Node {
		m, err := sampling.NewLineageHash(seed, map[string]float64{"o": p})
		if err != nil {
			t.Fatal(err)
		}
		return &Sample{Input: &Scan{Rel: ord}, Method: m}
	}
	n := &Intersect{Left: mk(1, 0.4), Right: mk(2, 0.5)}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.G.A()-0.2) > 1e-12 {
		t.Errorf("intersect a = %v, want 0.2", a.G.A())
	}
	rows, err := Execute(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(rows.Len()) / float64(ord.Len())
	if math.Abs(rate-0.2) > 0.05 {
		t.Errorf("intersect kept %v of rows, want ≈0.2", rate)
	}
}

func TestExecuteQuery1EndToEnd(t *testing.T) {
	li := lineitemRel(t, 2000, 500)
	ord := ordersRel(t, 500)
	n := query1Plan(t, li, ord)
	rows, err := Execute(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("sampled join produced no rows; fixture too small")
	}
	// All result rows satisfy both the join and the selection.
	lk, _ := rows.Cols.Index("l_orderkey")
	ok, _ := rows.Cols.Index("o_orderkey")
	pr, _ := rows.Cols.Index("l_extendedprice")
	for _, row := range rows.Data {
		a, _ := row.Vals[lk].AsInt()
		b, _ := row.Vals[ok].AsInt()
		if a != b {
			t.Fatal("join violated")
		}
		p, _ := row.Vals[pr].AsFloat()
		if p <= 100 {
			t.Fatal("selection violated")
		}
	}
}

func TestExecuteDeterministicWithSeed(t *testing.T) {
	li := lineitemRel(t, 500, 200)
	ord := ordersRel(t, 200)
	n := query1Plan(t, li, ord)
	r1, err := Execute(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Fatalf("same seed, different results: %d vs %d", r1.Len(), r2.Len())
	}
	for i := range r1.Data {
		if !r1.Data[i].Lin.Equal(r2.Data[i].Lin) {
			t.Fatal("same seed, different lineage")
		}
	}
}

func TestStripSampling(t *testing.T) {
	li := lineitemRel(t, 100, 50)
	ord := ordersRel(t, 50)
	n := query1Plan(t, li, ord)
	exact := StripSampling(n)
	found := false
	Walk(exact, func(c Node) {
		if _, ok := c.(*Sample); ok {
			found = true
		}
	})
	if found {
		t.Fatal("StripSampling left a Sample node")
	}
	// Exact plan must be deterministic and larger than any sampled run.
	rows, err := Execute(exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Execute(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Len() > rows.Len() {
		t.Error("sample larger than population")
	}
}

// TestRewriteCopyOnWrite: Rewrite leaves its input untouched, shares every
// subtree fn did not change, and copies exactly the spine above a change.
func TestRewriteCopyOnWrite(t *testing.T) {
	li := lineitemRel(t, 100, 50)
	ord := ordersRel(t, 50)
	n := query1Plan(t, li, ord)
	before := Format(n)
	if got := Rewrite(n, func(c Node) Node { return c }); got != n {
		t.Fatal("identity rewrite copied the plan")
	}
	visits := 0
	wrapped := Rewrite(n, func(c Node) Node {
		visits++
		if s, ok := c.(*Scan); ok && s.Rel == ord {
			return &GUS{Input: s}
		}
		return c
	})
	if Format(n) != before {
		t.Fatal("Rewrite modified its input plan")
	}
	nodes := 0
	Walk(n, func(Node) { nodes++ })
	if visits != nodes {
		t.Fatalf("fn saw %d nodes, plan has %d", visits, nodes)
	}
	if wrapped == n {
		t.Fatal("a changed leaf did not copy the root")
	}
	shared, wraps := 0, 0
	Walk(wrapped, func(c Node) {
		if g, ok := c.(*GUS); ok && g.G == nil {
			wraps++
		}
		Walk(n, func(o Node) {
			if o == c {
				shared++
			}
		})
	})
	if wraps != 1 {
		t.Fatalf("%d wrapped scans, want 1", wraps)
	}
	// σ, ⋈ and the orders Sample are copies; the lineitem Sample, its scan
	// and the orders scan (now under the GUS) are the input's own nodes.
	if shared != 3 {
		t.Fatalf("%d nodes shared with the input, want 3", shared)
	}
}

func TestProjectNodeExecutesAndAnalyzes(t *testing.T) {
	li := lineitemRel(t, 50, 20)
	bern, _ := sampling.NewBernoulli("l", 0.5)
	n := &Project{
		Input: &Sample{Input: &Scan{Rel: li}, Method: bern},
		Names: []string{"f"},
		Exprs: []expr.Expr{expr.Mul(expr.Col("l_discount"), expr.Sub(expr.Float(1), expr.Col("l_tax")))},
	}
	rows, err := Execute(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Cols.Len() != 1 {
		t.Error("projection schema wrong")
	}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.G.A()-0.5) > 1e-12 {
		t.Errorf("a = %v", a.G.A())
	}
}

func TestThetaExecutesAndAnalyzes(t *testing.T) {
	li := lineitemRel(t, 40, 20)
	ord := ordersRel(t, 20)
	bern, _ := sampling.NewBernoulli("o", 0.7)
	n := &Theta{
		Left:  &Scan{Rel: li},
		Right: &Sample{Input: &Scan{Rel: ord}, Method: bern},
		Pred:  expr.Eq(expr.Col("l_orderkey"), expr.Col("o_orderkey")),
	}
	rows, err := Execute(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := Execute(&Join{
		Left:     &Scan{Rel: li},
		Right:    &Sample{Input: &Scan{Rel: ord}, Method: bern},
		LeftCol:  "l_orderkey",
		RightCol: "o_orderkey",
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != hash.Len() {
		t.Errorf("theta join %d rows, hash join %d", rows.Len(), hash.Len())
	}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.G.A()-0.7) > 1e-12 {
		t.Errorf("a = %v", a.G.A())
	}
}

func TestFormatShowsTree(t *testing.T) {
	li := lineitemRel(t, 10, 10)
	ord := ordersRel(t, 10)
	n := query1Plan(t, li, ord)
	s := Format(n)
	for _, want := range []string{"σ", "⋈", "sample bernoulli(0.1)", "sample wor(1000)", "scan l", "scan o"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
	// Children indented deeper than parents.
	if strings.Index(s, "σ") > strings.Index(s, "scan l") {
		t.Error("root not first")
	}
}

func TestScanAlias(t *testing.T) {
	li := lineitemRel(t, 5, 5)
	n := &Scan{Rel: li, Alias: "items"}
	rows, err := Execute(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows.LSch.Name(0) != "items" {
		t.Error("alias not applied")
	}
	if !strings.Contains(n.Label(), "as items") {
		t.Error("label missing alias")
	}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema().Name(0) != "items" {
		t.Error("analysis missing alias")
	}
}

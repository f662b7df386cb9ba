package sqlparse

import (
	"math"
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/tpch"
)

const paperQuery = `
SELECT SUM(l_discount*(1.0-l_tax))
FROM lineitem TABLESAMPLE (10 PERCENT),
     orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND
      l_extendedprice > 100.0;`

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT sum(a) FROM t WHERE a >= 1.5e2 AND b <> 'x y' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	if kinds[0] != tokKeyword || texts[0] != "SELECT" {
		t.Errorf("first token = %v %q", kinds[0], texts[0])
	}
	found := map[string]bool{}
	for _, s := range texts {
		found[s] = true
	}
	for _, want := range []string{"SUM", "a", ">=", "1.5e2", "<>", "x y", ";"} {
		if !found[want] {
			t.Errorf("missing token %q in %v", want, texts)
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", "a ! b", "a # b"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) accepted", bad)
		}
	}
	if _, err := lex("a != b"); err != nil {
		t.Errorf("!= should lex as <>: %v", err)
	}
}

func TestParsePaperQuery1(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 1 || q.Aggregates[0].Kind != AggSum {
		t.Fatalf("aggregates = %+v", q.Aggregates)
	}
	if q.Aggregates[0].Arg.String() != "(l_discount * (1 - l_tax))" {
		t.Errorf("agg arg = %s", q.Aggregates[0].Arg)
	}
	if len(q.Tables) != 2 {
		t.Fatalf("tables = %+v", q.Tables)
	}
	li, ord := q.Tables[0], q.Tables[1]
	if li.Name != "lineitem" || li.Kind != SamplePercent || li.Value != 10 {
		t.Errorf("lineitem ref = %+v", li)
	}
	if ord.Name != "orders" || ord.Kind != SampleRows || ord.Value != 1000 {
		t.Errorf("orders ref = %+v", ord)
	}
	if q.Where == nil || !strings.Contains(q.Where.String(), "l_orderkey = o_orderkey") {
		t.Errorf("where = %v", q.Where)
	}
}

func TestParseQuantileView(t *testing.T) {
	// The paper's CREATE VIEW APPROX body (§1).
	q, err := Parse(`
SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05) AS lo,
       QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) AS hi
FROM lineitem TABLESAMPLE (10 PERCENT),
     orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 2 {
		t.Fatalf("aggregates = %d", len(q.Aggregates))
	}
	lo, hi := q.Aggregates[0], q.Aggregates[1]
	if !lo.HasQuantile || lo.Quantile != 0.05 || lo.Alias != "lo" {
		t.Errorf("lo = %+v", lo)
	}
	if !hi.HasQuantile || hi.Quantile != 0.95 || hi.Alias != "hi" {
		t.Errorf("hi = %+v", hi)
	}
}

func TestParseAggregateForms(t *testing.T) {
	q, err := Parse("SELECT COUNT(*), COUNT(a), AVG(b), SUM(a+b) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 4 {
		t.Fatal("wrong aggregate count")
	}
	if q.Aggregates[0].Kind != AggCount || q.Aggregates[0].Arg != nil {
		t.Error("COUNT(*) wrong")
	}
	if q.Aggregates[1].Kind != AggCount || q.Aggregates[1].Arg == nil {
		t.Error("COUNT(a) wrong")
	}
	if q.Aggregates[2].Kind != AggAvg {
		t.Error("AVG wrong")
	}
	if AggSum.String() != "SUM" || AggCount.String() != "COUNT" || AggAvg.String() != "AVG" {
		t.Error("AggKind.String wrong")
	}
}

func TestParseSampleVariants(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM a TABLESAMPLE BERNOULLI (25), b TABLESAMPLE SYSTEM (10), c TABLESAMPLE (5 PERCENT) REPEATABLE (42), d")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables[0].Kind != SamplePercent || q.Tables[0].Value != 25 {
		t.Errorf("BERNOULLI ref = %+v", q.Tables[0])
	}
	if q.Tables[1].Kind != SampleSystem || q.Tables[1].Value != 10 {
		t.Errorf("SYSTEM ref = %+v", q.Tables[1])
	}
	if q.Tables[2].Repeatable != 42 {
		t.Errorf("REPEATABLE ref = %+v", q.Tables[2])
	}
	if q.Tables[3].Kind != SampleNone {
		t.Errorf("plain ref = %+v", q.Tables[3])
	}
}

func TestParseAliases(t *testing.T) {
	q, err := Parse("SELECT SUM(v) AS total FROM items AS i TABLESAMPLE (50 PERCENT), groups g")
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggregates[0].Alias != "total" {
		t.Error("aggregate alias wrong")
	}
	if q.Tables[0].Alias != "i" || q.Tables[0].EffectiveName() != "i" {
		t.Error("AS alias wrong")
	}
	if q.Tables[1].Alias != "g" {
		t.Error("bare alias wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                     // no SELECT
		"SELECT FROM t",                        // no aggregate
		"SELECT a FROM t",                      // bare column, not aggregate
		"SELECT SUM(a FROM t",                  // unclosed paren
		"SELECT SUM(a) WHERE x = 1",            // no FROM
		"SELECT SUM(a) FROM",                   // no table
		"SELECT SUM(a) FROM t TABLESAMPLE (x)", // bad sample spec
		"SELECT SUM(a) FROM t TABLESAMPLE (5)", // missing PERCENT/ROWS
		"SELECT SUM(a) FROM t TABLESAMPLE (200 PERCENT)",   // >100%
		"SELECT SUM(a) FROM t TABLESAMPLE (1.5 ROWS)",      // fractional rows
		"SELECT QUANTILE(SUM(a), 1.5) FROM t",              // quantile outside (0,1)
		"SELECT QUANTILE(QUANTILE(SUM(a),0.5),0.5) FROM t", // nested
		"SELECT SUM(a) FROM t WHERE",                       // dangling WHERE
		"SELECT SUM(a) FROM t extra garbage here ;;",       // trailing
		"SELECT SUM(a) FROM t WHERE (a = 1",                // unclosed paren
		"SELECT SUM(a) FROM t WHERE a. = 1",                // bad qualified col
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseQualifiedColumnsAndPrecedence(t *testing.T) {
	q, err := Parse("SELECT SUM(t.a) FROM t WHERE a + 2 * b >= 4 OR NOT c = 1 AND d < 2")
	if err != nil {
		t.Fatal(err)
	}
	// * binds tighter than +, AND tighter than OR.
	want := "(((a + (2 * b)) >= 4) OR ((NOT (c = 1)) AND (d < 2)))"
	if q.Where.String() != want {
		t.Errorf("precedence wrong:\n got %s\nwant %s", q.Where, want)
	}
	if q.Aggregates[0].Arg.String() != "a" {
		t.Errorf("qualified column = %s", q.Aggregates[0].Arg)
	}
}

func TestParseNegativeNumbersAndUnaryMinus(t *testing.T) {
	q, err := Parse("SELECT SUM(-a) FROM t WHERE b > -1.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Where.String(), "(0 - 1.5)") {
		t.Errorf("unary minus = %s", q.Where)
	}
}

// catalog over generated TPC-H tables.
type mapCatalog map[string]*relation.Relation

func (m mapCatalog) Table(name string) (*relation.Relation, bool) {
	r, ok := m[name]
	return r, ok
}

func tpchCatalog(t *testing.T, orders int) mapCatalog {
	t.Helper()
	tb, err := tpch.Generate(tpch.Config{Orders: orders, Customers: 50, Parts: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return mapCatalog{
		"lineitem": tb.Lineitem,
		"orders":   tb.Orders,
		"customer": tb.Customer,
		"part":     tb.Part,
	}
}

func TestPlanPaperQuery1(t *testing.T) {
	cat := tpchCatalog(t, 2000)
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.Format(pl.Root)
	for _, want := range []string{"sample bernoulli(0.1)", "sample wor(1000)", "⋈ l_orderkey = o_orderkey", "σ (l_extendedprice > 100)"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("plan missing %q:\n%s", want, rendered)
		}
	}
	// It must execute and analyze end to end.
	rows, err := plan.Execute(pl.Root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Error("no sample rows")
	}
	a, err := plan.Analyze(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	// a = 0.1 · 1000/2000.
	if math.Abs(a.G.A()-0.1*1000/2000) > 1e-12 {
		t.Errorf("a = %v", a.G.A())
	}
}

func TestPlanFourWayJoin(t *testing.T) {
	cat := tpchCatalog(t, 500)
	q, err := Parse(`
SELECT SUM(l_extendedprice)
FROM lineitem TABLESAMPLE (20 PERCENT), orders, customer, part TABLESAMPLE (50 PERCENT)
WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_partkey = p_partkey`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Analyze(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema().Len() != 4 {
		t.Fatalf("schema = %v", a.Schema().Names())
	}
	if math.Abs(a.G.A()-0.1) > 1e-12 {
		t.Errorf("a = %v, want 0.2·0.5", a.G.A())
	}
	rows, err := plan.Execute(pl.Root, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.LSch.Equal(a.Schema()) {
		t.Error("execution/analysis schema mismatch")
	}
}

func TestPlanSingleTablePredicatesPushed(t *testing.T) {
	cat := tpchCatalog(t, 300)
	q, err := Parse(`
SELECT COUNT(*)
FROM lineitem TABLESAMPLE (50 PERCENT), orders
WHERE l_orderkey = o_orderkey AND l_quantity > 10 AND o_totalprice > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.Format(pl.Root)
	// Selections must sit below the join, on their own tables.
	joinLine := strings.Index(rendered, "⋈")
	qtyLine := strings.Index(rendered, "l_quantity")
	priceLine := strings.Index(rendered, "o_totalprice")
	if qtyLine < joinLine || priceLine < joinLine {
		t.Errorf("single-table predicates not pushed below join:\n%s", rendered)
	}
}

func TestPlanCrossProductFallback(t *testing.T) {
	cat := tpchCatalog(t, 50)
	q, err := Parse("SELECT COUNT(*) FROM customer, part")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(pl.Root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 50*30 {
		t.Errorf("cross product size = %d, want 1500", rows.Len())
	}
}

func TestPlanMultiTableNonEquiPredicate(t *testing.T) {
	cat := tpchCatalog(t, 200)
	q, err := Parse(`
SELECT COUNT(*)
FROM lineitem, orders
WHERE l_orderkey = o_orderkey AND l_extendedprice > o_totalprice / 10`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.Format(pl.Root)
	if !strings.Contains(rendered, "σ (l_extendedprice > (o_totalprice / 10))") {
		t.Errorf("non-equi predicate not applied post-join:\n%s", rendered)
	}
	if _, err := plan.Execute(pl.Root, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := tpchCatalog(t, 50)
	cases := []string{
		"SELECT SUM(l_quantity) FROM nosuch",
		"SELECT SUM(nosuchcol) FROM lineitem",
		"SELECT SUM(l_quantity) FROM lineitem WHERE nosuchcol = 1",
		"SELECT SUM(l_quantity) FROM lineitem, lineitem WHERE l_orderkey = l_orderkey", // self join
		"SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 ROWS) REPEATABLE (1)",
		"SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE SYSTEM (10) REPEATABLE (1)",
	}
	for _, s := range cases {
		q, err := Parse(s)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := PlanQuery(q, cat, PlannerOptions{}); err == nil {
			t.Errorf("PlanQuery(%q) accepted", s)
		}
	}
}

func TestPlanRepeatableSampling(t *testing.T) {
	cat := tpchCatalog(t, 500)
	q, err := Parse("SELECT COUNT(*) FROM lineitem TABLESAMPLE (30 PERCENT) REPEATABLE (7)")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Repeatable sampling must return identical rows across executions
	// even with different RNGs.
	r1, err := plan.Execute(pl.Root, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := plan.Execute(pl.Root, 999)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Fatalf("REPEATABLE not repeatable: %d vs %d rows", r1.Len(), r2.Len())
	}
	for i := range r1.Data {
		if !r1.Data[i].Lin.Equal(r2.Data[i].Lin) {
			t.Fatal("REPEATABLE rows differ")
		}
	}
}

func TestPlanSystemSampling(t *testing.T) {
	cat := tpchCatalog(t, 500)
	q, err := Parse("SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE SYSTEM (50)")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanQuery(q, cat, PlannerOptions{SystemBlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Analyze(pl.Root)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.G.A()-0.5) > 1e-12 {
		t.Errorf("SYSTEM a = %v", a.G.A())
	}
	rows, err := plan.Execute(pl.Root, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Error("SYSTEM sample empty")
	}
}

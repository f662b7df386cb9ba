package tpch

import (
	"testing"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
)

func TestGenerateCardinalities(t *testing.T) {
	tb, err := Generate(Config{Orders: 500, Customers: 100, Parts: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Orders.Len() != 500 {
		t.Errorf("orders = %d", tb.Orders.Len())
	}
	if tb.Customer.Len() != 100 || tb.Part.Len() != 50 {
		t.Error("dimension cardinalities wrong")
	}
	// 1..7 lineitems per order, average 4.
	n := tb.Lineitem.Len()
	if n < 500 || n > 3500 {
		t.Errorf("lineitem = %d, want within [500,3500]", n)
	}
	if float64(n)/500 < 3 || float64(n)/500 > 5 {
		t.Errorf("lineitem fan-out = %v, want ≈4", float64(n)/500)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Orders: 100, Customers: 20, Parts: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Orders: 100, Customers: 20, Parts: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Lineitem.Len() != b.Lineitem.Len() {
		t.Fatal("same seed, different lineitem count")
	}
	for i := 0; i < a.Lineitem.Len(); i++ {
		for j := range a.Lineitem.Row(i) {
			if !a.Lineitem.Row(i)[j].Equal(b.Lineitem.Row(i)[j]) {
				t.Fatalf("row %d differs", i)
			}
		}
	}
	c, err := Generate(Config{Orders: 100, Customers: 20, Parts: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := c.Lineitem.Len() == a.Lineitem.Len()
	if same {
		diff := false
		for i := 0; i < a.Lineitem.Len() && !diff; i++ {
			for j := range a.Lineitem.Row(i) {
				if !a.Lineitem.Row(i)[j].Equal(c.Lineitem.Row(i)[j]) {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Error("different seeds produced identical data")
		}
	}
}

func TestLineitemLineageEncoding(t *testing.T) {
	// §6.2: lineage ID = l_orderkey·10 + l_linenumber.
	tb, err := Generate(Config{Orders: 50, Customers: 10, Parts: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	li := tb.Lineitem
	okIdx, _ := li.Schema().Index("l_orderkey")
	lnIdx, _ := li.Schema().Index("l_linenumber")
	for i := 0; i < li.Len(); i++ {
		ok, _ := li.Row(i)[okIdx].AsInt()
		ln, _ := li.Row(i)[lnIdx].AsInt()
		want := lineage.TupleID(uint64(ok)*10 + uint64(ln))
		if li.ID(i) != want {
			t.Fatalf("row %d lineage = %d, want %d", i, li.ID(i), want)
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	tb, err := Generate(Config{Orders: 200, Customers: 30, Parts: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ckIdx, _ := tb.Orders.Schema().Index("o_custkey")
	for i := 0; i < tb.Orders.Len(); i++ {
		ck, _ := tb.Orders.Row(i)[ckIdx].AsInt()
		if ck < 1 || ck > 30 {
			t.Fatalf("dangling o_custkey %d", ck)
		}
	}
	pkIdx, _ := tb.Lineitem.Schema().Index("l_partkey")
	okIdx, _ := tb.Lineitem.Schema().Index("l_orderkey")
	for i := 0; i < tb.Lineitem.Len(); i++ {
		pk, _ := tb.Lineitem.Row(i)[pkIdx].AsInt()
		if pk < 1 || pk > 15 {
			t.Fatalf("dangling l_partkey %d", pk)
		}
		ok, _ := tb.Lineitem.Row(i)[okIdx].AsInt()
		if ok < 1 || ok > 200 {
			t.Fatalf("dangling l_orderkey %d", ok)
		}
	}
}

func TestValueRanges(t *testing.T) {
	tb, err := Generate(Config{Orders: 300, Customers: 40, Parts: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dIdx, _ := tb.Lineitem.Schema().Index("l_discount")
	tIdx, _ := tb.Lineitem.Schema().Index("l_tax")
	for i := 0; i < tb.Lineitem.Len(); i++ {
		d, _ := tb.Lineitem.Row(i)[dIdx].AsFloat()
		tax, _ := tb.Lineitem.Row(i)[tIdx].AsFloat()
		if d < 0 || d > 0.10001 {
			t.Fatalf("discount %v out of TPC-H range", d)
		}
		if tax < 0 || tax > 0.08001 {
			t.Fatalf("tax %v out of TPC-H range", tax)
		}
	}
}

func TestScaleFactor(t *testing.T) {
	cfg := ScaleFactor(0.001, 9)
	if cfg.Orders != 1500 || cfg.Customers != 150 || cfg.Parts != 200 {
		t.Errorf("ScaleFactor(0.001) = %+v", cfg)
	}
	tiny := ScaleFactor(0, 9)
	if tiny.Orders < 1 || tiny.Customers < 1 || tiny.Parts < 1 {
		t.Error("ScaleFactor(0) must clamp to 1")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Orders: 0, Customers: 1, Parts: 1}); err == nil {
		t.Error("zero orders accepted")
	}
	if _, err := Generate(Config{Orders: 1, Customers: -1, Parts: 1}); err == nil {
		t.Error("negative customers accepted")
	}
}

func TestPriceSkewWidensTail(t *testing.T) {
	flat, err := Generate(Config{Orders: 2000, Customers: 50, Parts: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	skew, err := Generate(Config{Orders: 2000, Customers: 50, Parts: 20, Seed: 6, PriceSkew: 5})
	if err != nil {
		t.Fatal(err)
	}
	maxPrice := func(r *relation.Relation) float64 {
		idx, _ := r.Schema().Index("l_extendedprice")
		m := 0.0
		for i := 0; i < r.Len(); i++ {
			v, _ := r.Row(i)[idx].AsFloat()
			if v > m {
				m = v
			}
		}
		return m
	}
	if maxPrice(skew.Lineitem) <= maxPrice(flat.Lineitem)*1.5 {
		t.Error("skew knob did not widen the price tail")
	}
}

// TestGenerateIDsUnique: Generate does not validate its tables, because
// its lineage IDs are unique by construction; this holds it to that over
// several seeds, a one-order table, a larger one and a skewed one.
func TestGenerateIDsUnique(t *testing.T) {
	configs := []Config{
		{Orders: 1, Customers: 1, Parts: 1},
		{Orders: 2000, Customers: 200, Parts: 250},
		{Orders: 2000, Customers: 200, Parts: 250, PriceSkew: 5},
	}
	for _, cfg := range configs {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg.Seed = seed
			tb, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tb.All() {
				if err := r.Validate(); err != nil {
					t.Errorf("%+v: %v", cfg, err)
				}
			}
			if n := tb.Lineitem.Len(); n < cfg.Orders || n > lineitemRows(cfg.Orders) {
				t.Errorf("%+v: %d lineitems outside [%d, %d]", cfg, n, cfg.Orders, lineitemRows(cfg.Orders))
			}
		}
	}
}

// BenchmarkGenerate times tpch.generate_s: the four tables at 250 k
// orders, the benchmark's scale, with gusgen's -orders cardinalities.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Orders: 250000, Customers: 25000, Parts: 31250, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "generate_s")
}

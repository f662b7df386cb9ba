package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/stats"
)

// query1Params builds the two sampling methods of the paper's Query 1:
// Bernoulli(0.1) on lineitem, WOR(1000, 150000) on orders.
func query1Params(t *testing.T) (*Params, *Params) {
	t.Helper()
	b, err := Bernoulli("l", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := WOR("o", 1000, 150000)
	if err != nil {
		t.Fatal(err)
	}
	return b, w
}

func TestExample3JoinCoefficients(t *testing.T) {
	// Example 3 / Figure 2(c): the single GUS for Query 1 after Prop. 6.
	b, w := query1Params(t)
	g, err := Join(b, w)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	approx(t, "a", g.A(), 6.667e-4, 1e-3)
	approx(t, "b_∅", g.B(lineage.Empty), 4.44e-7, 1e-2)
	approx(t, "b_o", g.B(s.MustSetOf("o")), 6.667e-5, 1e-3)
	approx(t, "b_l", g.B(s.MustSetOf("l")), 4.44e-6, 1e-2)
	approx(t, "b_lo", g.B(s.MustSetOf("l", "o")), 6.667e-4, 1e-3)
}

func TestFigure4CoefficientTable(t *testing.T) {
	// Figure 4: the full 4-relation walk-through. Exact paper table:
	//   G1 = B(0.1) on l, G2 = WOR(1000/150000) on o, G3 = B(0.5) on p,
	//   G12 = G1 ⋈ G2, G121 = G12 ⋈ G(1,1̄) on c, G123 = G121 ⋈ G3.
	g1, g2 := query1Params(t)
	g3, err := Bernoulli("p", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "a3", g3.A(), 0.5, 1e-12)
	approx(t, "b3,∅", g3.B(0), 0.25, 1e-12)

	g12, err := Join(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	g121, err := Join(g12, Identity(lineage.MustSchema("c")))
	if err != nil {
		t.Fatal(err)
	}
	g123, err := Join(g121, g3)
	if err != nil {
		t.Fatal(err)
	}

	s := g123.Schema()
	if s.Len() != 4 {
		t.Fatalf("final schema %v", s.Names())
	}
	approx(t, "a123", g123.A(), 3.334e-4, 1e-3)

	// Every entry of the paper's G(a123,b̄123) row (values as printed, so
	// tolerance matches the paper's 3–4 significant digits).
	want := map[string]float64{
		"":        1.11e-7,
		"p":       2.22e-7,
		"c":       1.11e-7,
		"c,p":     2.22e-7,
		"o":       1.667e-5,
		"o,p":     3.335e-5,
		"o,c":     1.667e-5,
		"o,c,p":   3.335e-5,
		"l":       1.11e-6,
		"l,p":     2.22e-6,
		"l,c":     1.11e-6,
		"l,c,p":   2.22e-6,
		"l,o":     1.667e-4,
		"l,o,p":   3.334e-4,
		"l,o,c":   1.667e-4,
		"l,o,c,p": 3.334e-4,
	}
	for names, v := range want {
		var set lineage.Set
		if names != "" {
			parts := []string{}
			for _, n := range splitNames(names) {
				parts = append(parts, n)
			}
			set = s.MustSetOf(parts...)
		}
		approx(t, "b123_{"+names+"}", g123.B(set), v, 2e-3)
	}

	// And the intermediate G(a121,b̄121) row.
	s121 := g121.Schema()
	want121 := map[string]float64{
		"":      4.44e-7,
		"c":     4.44e-7,
		"o":     6.667e-5,
		"o,c":   6.667e-5,
		"l":     4.44e-6,
		"l,c":   4.44e-6,
		"l,o":   6.667e-4,
		"l,o,c": 6.667e-4,
	}
	for names, v := range want121 {
		var set lineage.Set
		if names != "" {
			set = s121.MustSetOf(splitNames(names)...)
		}
		approx(t, "b121_{"+names+"}", g121.B(set), v, 2e-3)
	}
}

func splitNames(csv string) []string {
	var out []string
	cur := ""
	for _, r := range csv {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}

func TestExample5Composition(t *testing.T) {
	// Example 5: bi-dimensional Bernoulli B(0.2,0.3) = B(0.2,l) ∘ B(0.3,o).
	bl, _ := Bernoulli("l", 0.2)
	bo, _ := Bernoulli("o", 0.3)
	g, err := Compose(bl, bo)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	approx(t, "a", g.A(), 0.06, 1e-12)
	approx(t, "b_∅", g.B(0), 0.0036, 1e-12)
	approx(t, "b_o", g.B(s.MustSetOf("o")), 0.012, 1e-12)
	approx(t, "b_l", g.B(s.MustSetOf("l")), 0.018, 1e-12)
	approx(t, "b_lo", g.B(s.Full()), 0.06, 1e-12)
}

func TestFigure5CompactionTable(t *testing.T) {
	// Figure 5 / Example 6: §7 sub-sampling. G123 = Compact(G12, bi-dim
	// Bernoulli B(0.2,0.3)). Paper's printed row:
	//   a = 4e-5, b_∅ = 1.598e-9, b_o = 8e-7, b_l = 7.992e-8, b_lo = 4e-5.
	g1, g2 := query1Params(t)
	g12, err := Join(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	bl, _ := Bernoulli("l", 0.2)
	bo, _ := Bernoulli("o", 0.3)
	bidim, err := Compose(bl, bo)
	if err != nil {
		t.Fatal(err)
	}
	g123, err := Compact(g12, bidim)
	if err != nil {
		t.Fatal(err)
	}
	s := g123.Schema()
	approx(t, "a123", g123.A(), 4e-5, 1e-3)
	approx(t, "b_∅", g123.B(0), 1.598e-9, 1e-3)
	approx(t, "b_o", g123.B(s.MustSetOf("o")), 8e-7, 1e-3)
	approx(t, "b_l", g123.B(s.MustSetOf("l")), 7.992e-8, 1e-3)
	approx(t, "b_lo", g123.B(s.Full()), 4e-5, 1e-3)
}

func TestFigure5CompactionOrderInsensitive(t *testing.T) {
	// Compact must align schemas: the bi-dim method listed as (o,l) rather
	// than (l,o) must give the same result.
	g1, g2 := query1Params(t)
	g12, _ := Join(g1, g2)
	bl, _ := Bernoulli("l", 0.2)
	bo, _ := Bernoulli("o", 0.3)
	ol, _ := Compose(bo, bl) // schema order (o, l)
	lo, _ := Compose(bl, bo) // schema order (l, o)
	c1, err := Compact(g12, ol)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compact(g12, lo)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.ApproxEqual(c2, 1e-15) {
		t.Error("Compact is sensitive to argument schema order")
	}
}

func TestJoinRejectsSelfJoin(t *testing.T) {
	a, _ := Bernoulli("l", 0.1)
	b, _ := Bernoulli("l", 0.2)
	if _, err := Join(a, b); !errors.Is(err, ErrOverlappingLineage) {
		t.Errorf("self-join error = %v, want ErrOverlappingLineage", err)
	}
}

func TestCompactUnionRejectDifferentRelations(t *testing.T) {
	a, _ := Bernoulli("l", 0.1)
	b, _ := Bernoulli("o", 0.2)
	if _, err := Compact(a, b); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("Compact mismatch error = %v", err)
	}
	if _, err := Union(a, b); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("Union mismatch error = %v", err)
	}
}

func TestUnionClosedFormBernoulli(t *testing.T) {
	// Union of two independent Bernoulli samples of the same relation is
	// Bernoulli with 1−(1−p)(1−q) — check a and both coefficients.
	p, q := 0.3, 0.5
	gp, _ := Bernoulli("r", p)
	gq, _ := Bernoulli("r", q)
	u, err := Union(gp, gq)
	if err != nil {
		t.Fatal(err)
	}
	pu := p + q - p*q
	want, _ := Bernoulli("r", pu)
	if !u.ApproxEqual(want, 1e-12) {
		t.Errorf("union of Bernoullis:\n got %v\nwant %v", u, want)
	}
}

func TestUnionWithNullIsIdentityLaw(t *testing.T) {
	g := randomGUS(t, []string{"l", "o"}, []float64{0.25, 0.6})
	u, err := Union(g, Null(g.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if !u.ApproxEqual(g, 1e-12) {
		t.Errorf("G ∪ G(0,0̄) ≠ G:\n got %v\nwant %v", u, g)
	}
}

func TestCompactWithIdentityLaw(t *testing.T) {
	g := randomGUS(t, []string{"l", "o"}, []float64{0.25, 0.6})
	c, err := Compact(g, Identity(g.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if !c.ApproxEqual(g, 1e-12) {
		t.Errorf("G ∘ G(1,1̄) ≠ G")
	}
}

func TestCompactWithNullAbsorbs(t *testing.T) {
	g := randomGUS(t, []string{"l", "o"}, []float64{0.25, 0.6})
	c, err := Compact(g, Null(g.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsNull() {
		t.Error("G(0,0̄) must absorb under compaction")
	}
}

// TestSemiringMonoidLaws property-checks the Theorem 2 structure that holds
// exactly: both operations are commutative and associative with the stated
// neutral elements. (See TestDistributivityCounterexample for the law that
// does NOT hold.)
func TestSemiringMonoidLaws(t *testing.T) {
	rng := stats.NewRNG(2024)
	names := []string{"x", "y"}
	gen := func() *Params {
		return randomGUS(t, names, []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()})
	}
	for trial := 0; trial < 50; trial++ {
		g1, g2, g3 := gen(), gen(), gen()
		for _, op := range []struct {
			name string
			f    func(*Params, *Params) (*Params, error)
		}{{"union", Union}, {"compact", Compact}} {
			ab, err1 := op.f(g1, g2)
			ba, err2 := op.f(g2, g1)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !ab.ApproxEqual(ba, 1e-12) {
				t.Fatalf("%s not commutative", op.name)
			}
			bc, _ := op.f(g2, g3)
			left, _ := op.f(ab, g3)
			right, _ := op.f(g1, bc)
			if !left.ApproxEqual(right, 1e-10) {
				t.Fatalf("%s not associative", op.name)
			}
		}
	}
}

// TestDistributivityCounterexample documents that compaction does NOT
// distribute over union in general — the algebra is a pair of commutative
// monoids with an absorbing element, not a full semiring. (Theorem 2's
// proof is in the unavailable extended version; this pins the behaviour of
// the stated formulas.)
func TestDistributivityCounterexample(t *testing.T) {
	g, _ := Bernoulli("r", 0.5)
	h1, _ := Bernoulli("r", 1.0)
	h2, _ := Bernoulli("r", 1.0)
	u, _ := Union(h1, h2)
	left, _ := Compact(g, u) // a = 0.5 · 1 = 0.5
	c1, _ := Compact(g, h1)
	c2, _ := Compact(g, h2)
	right, _ := Union(c1, c2) // a = 0.5+0.5−0.25 = 0.75
	if left.ApproxEqual(right, 1e-9) {
		t.Fatal("distributivity unexpectedly holds for this counterexample")
	}
	approx(t, "left a", left.A(), 0.5, 1e-12)
	approx(t, "right a", right.A(), 0.75, 1e-12)
}

func TestJoinAssociativeAndOrderOfSchema(t *testing.T) {
	a, _ := Bernoulli("x", 0.2)
	b, _ := Bernoulli("y", 0.3)
	c, _ := Bernoulli("z", 0.4)
	ab, _ := Join(a, b)
	abc1, err := Join(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := Join(b, c)
	abc2, err := Join(a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !abc1.ApproxEqual(abc2, 1e-15) {
		t.Error("Join not associative (up to schema alignment)")
	}
}

func TestJoinAll(t *testing.T) {
	a, _ := Bernoulli("x", 0.2)
	b, _ := Bernoulli("y", 0.3)
	got, err := JoinAll(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Join(a, b)
	if !got.ApproxEqual(want, 0) {
		t.Error("JoinAll ≠ Join")
	}
	if _, err := JoinAll(); err == nil {
		t.Error("empty JoinAll accepted")
	}
	single, err := JoinAll(a)
	if err != nil || !single.ApproxEqual(a, 0) {
		t.Error("singleton JoinAll wrong")
	}
}

func TestUnionSelfIsNotIdempotent(t *testing.T) {
	// Prop. 7 models *independent* samples; the union of two independent
	// copies of Bernoulli(p) is Bernoulli(2p−p²), not Bernoulli(p).
	g, _ := Bernoulli("r", 0.4)
	u, err := Union(g, g)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "a", u.A(), 0.64, 1e-12)
}

func TestUnionProbabilityRangeProperty(t *testing.T) {
	// All union coefficients must remain valid probabilities.
	f := func(p1, p2 float64) bool {
		q1 := 0.001 + 0.998*abs1(p1)
		q2 := 0.001 + 0.998*abs1(p2)
		g1 := mustParams(Bernoulli("r", q1))
		g2 := mustParams(Bernoulli("r", q2))
		u, err := Union(g1, g2)
		if err != nil {
			return false
		}
		for m := 0; m < 2; m++ {
			v := u.B(lineage.Set(m))
			if v < 0 || v > 1 {
				return false
			}
		}
		return u.A() >= q1 && u.A() >= q2 // union can only keep more
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs1(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(x, 1))
}

func mustParams(p *Params, err error) *Params {
	if err != nil {
		panic(err)
	}
	return p
}

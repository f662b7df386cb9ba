package sampling

import (
	"fmt"
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/stats"
)

func baseRows(t *testing.T, name string, n int) *ops.Rows {
	t.Helper()
	r := relation.MustNew(name, relation.MustSchema(relation.Column{Name: name + "_v", Kind: relation.KindFloat}))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Float(float64(i + 1)))
	}
	rows, err := ops.FromRelation(r, "")
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func noCard(string) (int, error) { return 0, fmt.Errorf("no cardinality available") }

func TestBernoulliValidation(t *testing.T) {
	if _, err := NewBernoulli("r", -0.1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := NewBernoulli("r", 1.1); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := NewBernoulli("", 0.5); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestBernoulliParamsMatchFigure1(t *testing.T) {
	m, _ := NewBernoulli("l", 0.1)
	p, err := m.Params(noCard) // Bernoulli needs no cardinality
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Bernoulli("l", 0.1)
	if !p.ApproxEqual(want, 0) {
		t.Errorf("params = %v", p)
	}
	if m.Name() != "bernoulli(0.1)" {
		t.Errorf("Name = %q", m.Name())
	}
	if rels := m.Relations(); len(rels) != 1 || rels[0] != "l" {
		t.Errorf("Relations = %v", rels)
	}
}

func TestBernoulliApplyRate(t *testing.T) {
	in := baseRows(t, "r", 10000)
	m, _ := NewBernoulli("r", 0.3)
	out, err := m.Apply(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(out.Len()) / float64(in.Len())
	if math.Abs(rate-0.3) > 0.03 {
		t.Errorf("kept rate = %v", rate)
	}
	// Lineage and schema unchanged.
	if !out.LSch.Equal(in.LSch) {
		t.Error("lineage schema changed")
	}
}

func TestBernoulliApplyWrongRelation(t *testing.T) {
	in := baseRows(t, "r", 10)
	m, _ := NewBernoulli("other", 0.5)
	if _, err := m.Apply(in, 1); err == nil {
		t.Error("mismatched relation accepted")
	}
}

func TestWORExactSize(t *testing.T) {
	in := baseRows(t, "r", 500)
	m, _ := NewWOR("r", 50)
	out, err := m.Apply(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 50 {
		t.Fatalf("WOR kept %d rows, want 50", out.Len())
	}
	// No duplicates.
	seen := map[lineage.TupleID]bool{}
	for _, row := range out.Data {
		if seen[row.Lin[0]] {
			t.Fatal("WOR duplicated a tuple")
		}
		seen[row.Lin[0]] = true
	}
}

func TestWORUniformity(t *testing.T) {
	// Every tuple should be selected with probability k/n.
	in := baseRows(t, "r", 20)
	m, _ := NewWOR("r", 5)
	counts := map[lineage.TupleID]int{}
	rng := stats.NewRNG(3)
	const trials = 20000
	for i := 0; i < trials; i++ {
		out, err := m.Apply(in, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range out.Data {
			counts[row.Lin[0]]++
		}
	}
	want := 0.25
	for id, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("tuple %d inclusion = %v, want %v", id, got, want)
		}
	}
}

func TestWORParamsUseCardinality(t *testing.T) {
	m, _ := NewWOR("o", 1000)
	p, err := m.Params(func(rel string) (int, error) {
		if rel != "o" {
			t.Errorf("asked cardinality of %q", rel)
		}
		return 150000, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.WOR("o", 1000, 150000)
	if !p.ApproxEqual(want, 0) {
		t.Errorf("params = %v", p)
	}
	if _, err := m.Params(nil); err == nil {
		t.Error("nil cardinality oracle accepted")
	}
	if _, err := m.Params(noCard); err == nil {
		t.Error("failing cardinality oracle accepted")
	}
}

func TestWOROversizeClamps(t *testing.T) {
	in := baseRows(t, "r", 10)
	m, _ := NewWOR("r", 50)
	out, err := m.Apply(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Errorf("oversize WOR kept %d rows", out.Len())
	}
	p, err := m.Params(func(string) (int, error) { return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsIdentity() {
		t.Errorf("oversize WOR params should be identity, got %v", p)
	}
}

func TestWORValidation(t *testing.T) {
	if _, err := NewWOR("r", -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := NewWOR("", 5); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestBlockRewritesLineageToBlocks(t *testing.T) {
	in := baseRows(t, "r", 100)
	m, _ := NewBlock("r", 10, 1.0) // keep everything; inspect lineage
	out, err := m.Apply(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("kept %d rows", out.Len())
	}
	blocks := map[lineage.TupleID]int{}
	for _, row := range out.Data {
		blocks[row.Lin[0]]++
	}
	if len(blocks) != 10 {
		t.Fatalf("saw %d block IDs, want 10", len(blocks))
	}
	for id, n := range blocks {
		if n != 10 {
			t.Errorf("block %d has %d tuples", id, n)
		}
	}
}

func TestBlockKeepsWholeBlocks(t *testing.T) {
	in := baseRows(t, "r", 1000)
	m, _ := NewBlock("r", 25, 0.4)
	out, err := m.Apply(in, 6)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[lineage.TupleID]int{}
	for _, row := range out.Data {
		counts[row.Lin[0]]++
	}
	for id, n := range counts {
		if n != 25 {
			t.Errorf("partial block %d (%d tuples) survived", id, n)
		}
	}
	rate := float64(len(counts)) / 40
	if math.Abs(rate-0.4) > 0.25 {
		t.Errorf("block keep rate = %v", rate)
	}
}

func TestBlockParamsAndValidation(t *testing.T) {
	m, _ := NewBlock("r", 10, 0.3)
	p, err := m.Params(noCard)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Bernoulli("r", 0.3)
	if !p.ApproxEqual(want, 0) {
		t.Error("block params should be Bernoulli over blocks")
	}
	if _, err := NewBlock("r", 0, 0.3); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewBlock("r", 10, 2); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := NewBlock("", 10, 0.5); err == nil {
		t.Error("empty relation accepted")
	}
}

// crossedRows is a×b over two 4-row relations: every a tuple appears in
// four result rows.
func crossedRows(t *testing.T) *ops.Rows {
	t.Helper()
	crossed, err := ops.Cross(baseRows(t, "a", 4), baseRows(t, "b", 4))
	if err != nil {
		t.Fatal(err)
	}
	return crossed
}

func TestBlockRejectsJoinedInput(t *testing.T) {
	m, _ := NewBlock("a", 2, 0.5)
	if _, err := m.Apply(crossedRows(t), 1); err == nil {
		t.Error("block sampling over a join accepted")
	}
}

// TestBernoulliRejectsJoinedInput: over a join, a rule keyed by row
// position would keep two rows sharing an a tuple independently — both
// with probability p², where Figure 1 promises b_a = p. Lineage-keyed
// methods decide per tuple and accept the join.
func TestBernoulliRejectsJoinedInput(t *testing.T) {
	crossed := crossedRows(t)
	bern, _ := NewBernoulli("a", 0.5)
	wor, _ := NewWOR("a", 3)
	for _, m := range []Method{bern, wor, &Residual{Rel: "a", P: 0.25, Q: 0.5}} {
		if _, err := m.Apply(crossed, 1); err == nil {
			t.Errorf("%s over a join accepted", m.Name())
		}
	}
	lh, _ := NewLineageHash(1, map[string]float64{"a": 0.5})
	for _, m := range []Method{lh, &Residual{Rel: "a", P: 0.25, Q: 0.5, Nested: true}} {
		if _, err := m.Apply(crossed, 1); err != nil {
			t.Errorf("%s over a join: %v", m.Name(), err)
		}
	}
}

func TestLineageHashDeterministicAcrossRows(t *testing.T) {
	// The same base tuple must get the same decision wherever it appears —
	// apply to a join result where each left tuple appears many times.
	l := relation.MustNew("l", relation.MustSchema(relation.Column{Name: "lk", Kind: relation.KindInt}))
	r := relation.MustNew("o", relation.MustSchema(relation.Column{Name: "ok", Kind: relation.KindInt}))
	for i := 1; i <= 20; i++ {
		l.MustAppend(relation.Int(int64(i % 5)))
	}
	for i := 0; i < 5; i++ {
		r.MustAppend(relation.Int(int64(i)))
	}
	lrows, _ := ops.FromRelation(l, "")
	rrows, _ := ops.FromRelation(r, "")
	joined, err := ops.HashJoin(lrows, rrows, "lk", "ok")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLineageHash(42, map[string]float64{"o": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Apply(joined, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Per o-tuple: either all of its join rows survive or none do.
	slot, _ := out.LSch.Index("o")
	kept := map[lineage.TupleID]bool{}
	for _, row := range out.Data {
		kept[row.Lin[slot]] = true
	}
	inCount := map[lineage.TupleID]int{}
	slotIn, _ := joined.LSch.Index("o")
	for _, row := range joined.Data {
		inCount[row.Lin[slotIn]]++
	}
	outCount := map[lineage.TupleID]int{}
	for _, row := range out.Data {
		outCount[row.Lin[slot]]++
	}
	for id := range kept {
		if outCount[id] != inCount[id] {
			t.Errorf("tuple %d partially sampled: %d of %d rows", id, outCount[id], inCount[id])
		}
	}
}

func TestLineageHashParamsCompose(t *testing.T) {
	m, err := NewLineageHash(7, map[string]float64{"l": 0.2, "o": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Params(noCard)
	if err != nil {
		t.Fatal(err)
	}
	// Example 5's bi-dimensional Bernoulli table.
	s := p.Schema()
	if math.Abs(p.A()-0.06) > 1e-12 {
		t.Errorf("a = %v", p.A())
	}
	if math.Abs(p.B(s.MustSetOf("o"))-0.012) > 1e-12 {
		t.Errorf("b_o = %v", p.B(s.MustSetOf("o")))
	}
	if math.Abs(p.B(s.MustSetOf("l"))-0.018) > 1e-12 {
		t.Errorf("b_l = %v", p.B(s.MustSetOf("l")))
	}
}

func TestLineageHashRate(t *testing.T) {
	in := baseRows(t, "r", 20000)
	m, _ := NewLineageHash(11, map[string]float64{"r": 0.25})
	out, err := m.Apply(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(out.Len()) / float64(in.Len())
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("rate = %v", rate)
	}
	// Re-applying the same method must be a no-op (idempotence of a fixed
	// pseudo-random filter).
	again, err := m.Apply(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != out.Len() {
		t.Error("lineage-hash filter is not idempotent")
	}
}

func TestLineageHashSeedsDiffer(t *testing.T) {
	in := baseRows(t, "r", 5000)
	m1, _ := NewLineageHash(1, map[string]float64{"r": 0.5})
	m2, _ := NewLineageHash(2, map[string]float64{"r": 0.5})
	o1, _ := m1.Apply(in, 0)
	o2, _ := m2.Apply(in, 0)
	same := 0
	k1 := map[lineage.TupleID]bool{}
	for _, row := range o1.Data {
		k1[row.Lin[0]] = true
	}
	for _, row := range o2.Data {
		if k1[row.Lin[0]] {
			same++
		}
	}
	// Independent halves should overlap on ~25% of the population.
	frac := float64(same) / float64(in.Len())
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("overlap fraction = %v, want ≈0.25", frac)
	}
}

func TestLineageHashValidation(t *testing.T) {
	if _, err := NewLineageHash(1, nil); err == nil {
		t.Error("empty probs accepted")
	}
	if _, err := NewLineageHash(1, map[string]float64{"r": 1.5}); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := NewLineageHash(1, map[string]float64{"": 0.5}); err == nil {
		t.Error("empty relation accepted")
	}
	m, _ := NewLineageHash(1, map[string]float64{"a": 0.5, "b": 0.25})
	if m.Name() != "lineage-bernoulli(a:0.5,b:0.25)" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Prob("a") != 0.5 {
		t.Error("Prob wrong")
	}
	in := baseRows(t, "c", 5)
	if _, err := m.Apply(in, 0); err == nil {
		t.Error("apply over missing relation accepted")
	}
}

func TestMonteCarloGUSParameters(t *testing.T) {
	// Empirically estimate a and b_T for each single-relation method and
	// compare against its claimed GUS translation — the operational
	// correctness of the Figure 1 table.
	const n = 12
	const trials = 40000
	in := baseRows(t, "r", n)
	card := func(string) (int, error) { return n, nil }

	bern, _ := NewBernoulli("r", 0.4)
	wor, _ := NewWOR("r", 5)
	methods := []Method{bern, wor}
	for _, m := range methods {
		p, err := m.Params(card)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(77)
		incl := make([]int, n)
		pairSame := 0 // pairs (t,t) — trivially a
		pairDiff := 0 // inclusion of a fixed distinct pair (tuple 0, tuple 1)
		for trial := 0; trial < trials; trial++ {
			out, err := m.Apply(in, rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			has := map[lineage.TupleID]bool{}
			for _, row := range out.Data {
				has[row.Lin[0]] = true
			}
			for i := 0; i < n; i++ {
				if has[lineage.TupleID(i+1)] {
					incl[i]++
				}
			}
			if has[1] {
				pairSame++
			}
			if has[1] && has[2] {
				pairDiff++
			}
		}
		for i := 0; i < n; i++ {
			got := float64(incl[i]) / trials
			if math.Abs(got-p.A()) > 0.01 {
				t.Errorf("%s: P[t%d ∈ 𝓡] = %v, want a = %v", m.Name(), i, got, p.A())
			}
		}
		gotBEmpty := float64(pairDiff) / trials
		if math.Abs(gotBEmpty-p.B(lineage.Empty)) > 0.01 {
			t.Errorf("%s: P[t,t′ ∈ 𝓡] = %v, want b_∅ = %v", m.Name(), gotBEmpty, p.B(lineage.Empty))
		}
	}
}

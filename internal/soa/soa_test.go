package soa

import (
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
)

// smallRel builds a relation r(k int, v float) with n tuples, k = i%modK.
func smallRel(t *testing.T, name string, n, modK int) *relation.Relation {
	t.Helper()
	r := relation.MustNew(name, relation.MustSchema(
		relation.Column{Name: name + "_k", Kind: relation.KindInt},
		relation.Column{Name: name + "_v", Kind: relation.KindFloat},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Int(int64(i%modK)), relation.Float(float64(i+1)))
	}
	return r
}

func mustBernoulli(t *testing.T, rel string, p float64) sampling.Method {
	t.Helper()
	m, err := sampling.NewBernoulli(rel, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const (
	mcTrials = 12000
	mcTol    = 0.035
)

func TestProp5SelectionCommutesWithBernoulli(t *testing.T) {
	r := smallRel(t, "r", 16, 4)
	pred := expr.Gt(expr.Col("r_v"), expr.Float(5))
	sampleThenSelect := &plan.Select{
		Input: &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.4)},
		Pred:  pred,
	}
	selectThenSample := &plan.Sample{
		Input:  &plan.Select{Input: &plan.Scan{Rel: r}, Pred: pred},
		Method: mustBernoulli(t, "r", 0.4),
	}
	if err := CheckEquivalent(PlanTrial(sampleThenSelect), PlanTrial(selectThenSample), mcTrials, 1, mcTol); err != nil {
		t.Error(err)
	}
}

func TestProp5SelectionCommutesWithWOR(t *testing.T) {
	r := smallRel(t, "r", 12, 3)
	wor, err := sampling.NewWOR("r", 5)
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.Gt(expr.Col("r_v"), expr.Float(4))
	// σ(WOR(R)) — WOR before selection. (The other direction changes the
	// population WOR draws from, so it is NOT the same method; Prop. 5
	// commutes the GUS quasi-operator, i.e. the plan re-write changes only
	// the analysis, not execution. Here we verify the analysis direction:
	// the profile of σ(WOR(R)) matches the GUS prediction.)
	p := &plan.Select{
		Input: &plan.Sample{Input: &plan.Scan{Rel: r}, Method: wor},
		Pred:  pred,
	}
	prof, err := EstimateProfile(PlanTrial(p), mcTrials, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving tuple must show P[t] = a = 5/12; pairs b_∅.
	a := 5.0 / 12
	bEmpty := 5.0 * 4 / (12 * 11)
	for k, v := range prof.First {
		if math.Abs(v-a) > mcTol {
			t.Errorf("P[%q] = %v, want %v", k, v, a)
		}
	}
	for k, v := range prof.Second {
		if math.Abs(v-bEmpty) > mcTol {
			t.Errorf("P[%v] = %v, want %v", k, v, bEmpty)
		}
	}
}

func TestProp6JoinCommutesWithSampling(t *testing.T) {
	// G1(R) ⋈ G2(S) must be SOA-equivalent to G12(R ⋈ S) where G12 is the
	// bi-dimensional Bernoulli with the same rates (lineage-hash, so it is
	// a genuine GUS over the join result).
	r := smallRel(t, "r", 10, 5)
	s := smallRel(t, "s", 5, 5)
	sampleBelow := &plan.Join{
		Left:     &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.5)},
		Right:    &plan.Sample{Input: &plan.Scan{Rel: s}, Method: mustBernoulli(t, "s", 0.6)},
		LeftCol:  "r_k",
		RightCol: "s_k",
	}
	// Above: the hash method's own seed must vary across trials for it to
	// be random; wrap the trial to rebuild the plan each time.
	above := func(seed uint64) ([]string, error) {
		m, err := sampling.NewLineageHash(seed, map[string]float64{"r": 0.5, "s": 0.6})
		if err != nil {
			return nil, err
		}
		n := &plan.Sample{
			Input: &plan.Join{
				Left: &plan.Scan{Rel: r}, Right: &plan.Scan{Rel: s},
				LeftCol: "r_k", RightCol: "s_k",
			},
			Method: m,
		}
		return PlanTrial(n)(seed)
	}
	if err := CheckEquivalent(PlanTrial(sampleBelow), above, mcTrials, 3, mcTol); err != nil {
		t.Error(err)
	}
}

func TestProp7UnionOfIndependentSamples(t *testing.T) {
	// B1(R) ∪ B2(R) (independent) ⟺ Bernoulli(a1+a2−a1a2)(R).
	r := smallRel(t, "r", 14, 7)
	unionPlan := func(seed uint64) ([]string, error) {
		rng := stats.NewRNG(seed)
		m1, err := sampling.NewLineageHash(rng.Uint64(), map[string]float64{"r": 0.3})
		if err != nil {
			return nil, err
		}
		m2, err := sampling.NewLineageHash(rng.Uint64(), map[string]float64{"r": 0.4})
		if err != nil {
			return nil, err
		}
		n := &plan.Union{
			Left:  &plan.Sample{Input: &plan.Scan{Rel: r}, Method: m1},
			Right: &plan.Sample{Input: &plan.Scan{Rel: r}, Method: m2},
		}
		return PlanTrial(n)(seed)
	}
	combined := &plan.Sample{
		Input:  &plan.Scan{Rel: r},
		Method: mustBernoulli(t, "r", 0.3+0.4-0.12),
	}
	if err := CheckEquivalent(unionPlan, PlanTrial(combined), mcTrials, 4, mcTol); err != nil {
		t.Error(err)
	}
}

func TestProp8StackedSampling(t *testing.T) {
	// B(p2) over B(p1) ⟺ B(p1·p2).
	r := smallRel(t, "r", 14, 7)
	stacked := &plan.Sample{
		Input:  &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.6)},
		Method: mustBernoulli(t, "r", 0.5),
	}
	single := &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.3)}
	if err := CheckEquivalent(PlanTrial(stacked), PlanTrial(single), mcTrials, 5, mcTol); err != nil {
		t.Error(err)
	}
}

func TestProp4IdentityInsertion(t *testing.T) {
	// Inserting Bernoulli(1) anywhere changes nothing.
	r := smallRel(t, "r", 10, 5)
	with := &plan.Sample{
		Input:  &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.5)},
		Method: mustBernoulli(t, "r", 1.0),
	}
	without := &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.5)}
	if err := CheckEquivalent(PlanTrial(with), PlanTrial(without), mcTrials, 6, mcTol); err != nil {
		t.Error(err)
	}
}

func TestAnalysisPredictsEmpiricalMoments(t *testing.T) {
	// End-to-end Definition 2 check: the (E, Var) predicted by
	// plan.Analyze + Theorem 1 matches empirical moments of the executed
	// randomized plan.
	r := smallRel(t, "r", 30, 6)
	s := smallRel(t, "s", 6, 6)
	n := &plan.Join{
		Left:     &plan.Sample{Input: &plan.Scan{Rel: r}, Method: mustBernoulli(t, "r", 0.5)},
		Right:    &plan.Sample{Input: &plan.Scan{Rel: s}, Method: mustBernoulli(t, "s", 0.7)},
		LeftCol:  "r_k",
		RightCol: "s_k",
	}
	f := expr.Mul(expr.Col("r_v"), expr.Col("s_v"))
	mean, variance, err := AggregateMoments(n, f, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	// Predicted moments of the RAW sample sum (not scaled by 1/a):
	// E[Σf] = a·Σf_pop, Var[Σf] = a²·σ²(X).
	exact, err := plan.Execute(plan.StripSampling(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := ops.SumF(exact, f)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := estimator.PopulationMoments(exact, f)
	if err != nil {
		t.Fatal(err)
	}
	sigma2, err := a.G.Variance(ys)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := a.G.A() * total
	wantVar := a.G.A() * a.G.A() * sigma2
	if stats.RelErr(mean, wantMean) > 0.03 {
		t.Errorf("empirical E[Σf] = %v, predicted %v", mean, wantMean)
	}
	if stats.RelErr(variance, wantVar) > 0.10 {
		t.Errorf("empirical Var[Σf] = %v, predicted %v", variance, wantVar)
	}
}

func TestEstimateProfileValidation(t *testing.T) {
	if _, err := EstimateProfile(func(uint64) ([]string, error) { return nil, nil }, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestMaxDiffAsymmetricKeys(t *testing.T) {
	p := &Profile{First: map[string]float64{"a": 0.5}, Second: map[[2]string]float64{}}
	q := &Profile{First: map[string]float64{"b": 0.3}, Second: map[[2]string]float64{{"x", "y"}: 0.2}}
	f, s := p.MaxDiff(q)
	if f != 0.5 || s != 0.2 {
		t.Errorf("MaxDiff = %v,%v", f, s)
	}
}

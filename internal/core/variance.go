package core

import (
	"fmt"
	"math"

	"github.com/sampling-algebra/gus/internal/lineage"
)

// CS returns the Theorem 1 coefficients c_S, dense over subsets:
//
//	c_S = Σ_{T ⊆ S} (−1)^{|S\T|} · b_T        (with b_{1:n} = a)
//
// (The arXiv preprint prints the summation range as all of P(n); the form
// above is the Möbius inversion that the theorem's derivation requires,
// and it reproduces the classical Bernoulli and WOR variance formulas
// exactly.)
//
// Computed with an in-place subset Möbius transform in O(n·2ⁿ).
func (p *Params) CS() []float64 {
	c := append([]float64(nil), p.b...)
	n := p.schema.Len()
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := range c {
			if m&bit != 0 {
				c[m] -= c[m^bit]
			}
		}
	}
	return c
}

// csNaive is the O(3ⁿ) direct evaluation of the same coefficients, kept as
// a test oracle for the transform.
func (p *Params) csNaive() []float64 {
	c := make([]float64, len(p.b))
	for m := range c {
		s := lineage.Set(m)
		var sum float64
		s.Subsets(func(t lineage.Set) {
			sum += lineage.SignPow(s.Diff(t).Len()) * p.b[t]
		})
		c[m] = sum
	}
	return c
}

// Kappa returns κ_{S,W} = Σ_{S⊆T⊆W} (−1)^{|W\T|} b_T for S ⊆ W — the
// coefficient linking E[Y_S] to y_W in the §6.3 unbiased-ŷ recursion:
//
//	E[Y_S] = Σ_{W ⊇ S} κ_{S,W} · y_W,   κ_{S,S} = b_S.
func (p *Params) Kappa(s, w lineage.Set) float64 {
	if !s.SubsetOf(w) || !w.SubsetOf(p.schema.Full()) {
		panic(fmt.Sprintf("core: Kappa(%v,%v) needs S ⊆ W ⊆ full", s, w))
	}
	free := w.Diff(s)
	var sum float64
	free.Subsets(func(u lineage.Set) {
		sum += lineage.SignPow(free.Diff(u).Len()) * p.b[s|u]
	})
	return sum
}

// Estimate scales a sample SUM into the unbiased Theorem 1 estimator
// X = (1/a)·Σ_{t∈𝓡} f(t). It returns NaN for a degenerate a = 0 method.
func (p *Params) Estimate(sampleSum float64) float64 {
	if p.a == 0 {
		return math.NaN()
	}
	return sampleSum / p.a
}

// Variance evaluates Theorem 1 given the data moments y_S (dense over
// subsets, index = lineage.Set):
//
//	σ²(X) = Σ_S (c_S / a²) · y_S − y_∅
//
// The y_S may be exact population values (exact analysis) or unbiased
// estimates Ŷ_S (the SBox path, §6.3–6.4).
func (p *Params) Variance(ys []float64) (float64, error) {
	if len(ys) != len(p.b) {
		return 0, fmt.Errorf("core: variance needs %d y_S values, got %d", len(p.b), len(ys))
	}
	if p.a == 0 {
		return 0, fmt.Errorf("core: variance undefined for a null GUS (a=0)")
	}
	cs := p.CS()
	var acc float64
	for m, c := range cs {
		acc += c / (p.a * p.a) * ys[m]
	}
	return acc - ys[0], nil
}

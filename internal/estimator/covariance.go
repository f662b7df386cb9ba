package estimator

import (
	"fmt"
	"math"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/lineage"
)

// BilinearMoments computes the cross moments Y_S(f,g) for every S:
// group the sample by the projection of lineage onto S and sum the
// products of the per-group f- and g-totals:
//
//	Y_S(f,g) = Σ_groups (Σ f)(Σ g).
//
// With f = g this reduces to Moments. The same §6.3 recursion (UnbiasedY)
// unbiases them — it is linear in the moments, so it applies verbatim —
// yielding Ŷ_S(f,g), from which Theorem 1's sum gives Cov(X_f, X_g):
// the covariance of two SUM estimators over the SAME GUS sample. This is
// the engine behind the delta-method AVG of §9.
func BilinearMoments(n int, lins []lineage.Vector, fs, gs []float64) ([]float64, error) {
	if len(lins) != len(fs) || len(fs) != len(gs) {
		return nil, fmt.Errorf("estimator: bilinear moments need equal-length inputs (%d,%d,%d)", len(lins), len(fs), len(gs))
	}
	return groupMoments(n, vectorColumns(n, lins), fs, gs, Options{}, nil), nil
}

// Covariance estimates Cov(X_f, X_g) for the two SUM estimators computed
// from the same GUS sample. By the polarization of Theorem 1, the same
// c_S/a² combination applied to unbiased bilinear moments is an unbiased
// covariance estimate:
//
//	Côv = Σ_S (c_S/a²)·Ŷ_S(f,g) − Ŷ_∅(f,g).
func Covariance(g *core.Params, lins []lineage.Vector, fs, gs []float64) (float64, error) {
	if len(lins) != len(fs) {
		return 0, fmt.Errorf("estimator: %d lineage vectors for %d aggregate values", len(lins), len(fs))
	}
	if g.A() == 0 {
		return 0, fmt.Errorf("estimator: null GUS (a=0) has no covariance")
	}
	if len(fs) != len(gs) {
		return 0, fmt.Errorf("estimator: bilinear moments need equal-length inputs (%d,%d)", len(fs), len(gs))
	}
	yhat, err := UnbiasedY(g, groupMoments(g.N(), vectorColumns(g.N(), lins), fs, gs, Options{}, nil))
	if err != nil {
		return 0, err
	}
	return g.Variance(yhat) // Theorem 1's combination is the same
}

// RatioResult is a delta-method estimate of a ratio of two SUM aggregates.
type RatioResult struct {
	// Estimate is num̂/den̂ (equivalently Σf/Σg — the a-scaling cancels).
	Estimate float64
	// Variance is the first-order delta-method variance (clamped at 0).
	Variance float64
	// Num and Den are the component SUM results.
	Num, Den *Result
	// Cov is the estimated covariance of the two SUM estimators.
	Cov float64
	// Clamped reports whether the delta-method variance was negative
	// before clamping — what the diagnostics grade.
	Clamped bool
	// Diag reports variance-estimate reliability (nil unless
	// Options.Diagnostics was set): the weaker of the component SUM
	// diagnostics, always marked Approximate.
	Diag *Diagnostics
}

// StdDev returns the delta-method standard deviation.
func (r *RatioResult) StdDev() float64 { return math.Sqrt(r.Variance) }

// ratioSrc is the core of RatioBatch: it estimates num/den, where both are
// SUM aggregates over the same GUS sample given as per-slot lineage columns
// and per-row values, with the delta-method variance of ratioOf. AVG(f)
// is the ratio of f to 1.
func ratioSrc(g *core.Params, lin [][]lineage.TupleID, nfs, dfs []float64, opts Options) (*RatioResult, error) {
	nRes, err := fromSource(g, lin, nfs, opts)
	if err != nil {
		return nil, err
	}
	dRes, err := fromSource(g, lin, dfs, opts)
	if err != nil {
		return nil, err
	}
	return ratioOf(g, nRes, dRes, groupMoments(g.N(), lin, nfs, dfs, opts, nil))
}

// ratioOf is the delta-method tail behind every ratio, one-shot and
// streamed: from the component SUM results and the bilinear cross moments
// yND of the full sample it derives Cov(N,D) by Theorem 1 and the
// first-order variance the paper's §9 sketches:
//
//	Var(N/D) ≈ Var(N)/D² − 2·N·Cov(N,D)/D³ + N²·Var(D)/D⁴
//
// The result is approximate (first-order Taylor), unlike the exact SUM
// analysis. Its diagnostics, when the components carry theirs, are graded
// against this variance's own clamp.
func ratioOf(g *core.Params, nRes, dRes *Result, yND []float64) (*RatioResult, error) {
	if dRes.Estimate == 0 {
		return nil, fmt.Errorf("estimator: ratio with (estimated) zero denominator")
	}
	yhat, err := UnbiasedY(g, yND)
	if err != nil {
		return nil, err
	}
	cov, err := g.Variance(yhat)
	if err != nil {
		return nil, err
	}
	n, d := nRes.Estimate, dRes.Estimate
	r := &RatioResult{
		Estimate: n / d,
		Variance: nRes.RawVariance/(d*d) - 2*n*cov/(d*d*d) + n*n*dRes.RawVariance/(d*d*d*d),
		Num:      nRes,
		Den:      dRes,
		Cov:      cov,
	}
	if r.Variance < 0 {
		r.Variance, r.Clamped = 0, true
	}
	r.Diag = mergeRatioDiag(nRes.Diag, dRes.Diag, r.Clamped)
	return r, nil
}

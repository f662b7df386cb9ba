package estimator

import (
	"fmt"
	"testing"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/stats"
)

// batchSample draws a two-relation joined sample (reusing the package's
// population/design/drawSample fixtures) in both representations.
func batchSample(t *testing.T, items, groups int) (*core.Params, *ops.Rows, *batch.Batch) {
	t.Helper()
	_, it, gr := population(t, items, groups)
	g := design(t, 0.4, groups/2, groups)
	rows := drawSample(t, it, gr, 0.4, groups/2, stats.NewRNG(21))
	b, err := batch.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return g, rows, b
}

// TestEstimateBatchBitIdentical: the batch-fed SBox must reproduce the
// row-fed SBox float for float — estimate, variance, moments — for every
// worker count, with and without §7 sub-sampling.
func TestEstimateBatchBitIdentical(t *testing.T) {
	g, rows, b := batchSample(t, 6000, 40)
	f := expr.Mul(expr.Col("v"), expr.Float(1.5))
	for _, workers := range []int{1, 2, 8} {
		for _, maxVar := range []int{0, 300} {
			opts := Options{Workers: workers, MaxVarianceRows: maxVar, Seed: 99, PartitionSize: 128}
			want, err := Estimate(g, rows, f, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimateBatch(g, b, f, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d maxVar=%d", workers, maxVar)
			if got.Estimate != want.Estimate {
				t.Errorf("%s: estimate %.17g vs %.17g", label, got.Estimate, want.Estimate)
			}
			if got.RawVariance != want.RawVariance {
				t.Errorf("%s: variance %.17g vs %.17g", label, got.RawVariance, want.RawVariance)
			}
			if got.SampleRows != want.SampleRows || got.VarianceRows != want.VarianceRows ||
				got.Subsampled != want.Subsampled {
				t.Errorf("%s: bookkeeping differs", label)
			}
			for i := range want.YHat {
				if got.YHat[i] != want.YHat[i] {
					t.Errorf("%s: yhat[%d] %.17g vs %.17g", label, i, got.YHat[i], want.YHat[i])
				}
			}
		}
	}
}

// TestRatioBatchBitIdentical covers the delta-method AVG path: the
// component SUMs must be the row-fed SBox's float for float, and the whole
// ratio identical at every worker count.
func TestRatioBatchBitIdentical(t *testing.T) {
	g, rows, b := batchSample(t, 4000, 30)
	num := expr.Col("v")
	den := expr.Int(1)
	var first *RatioResult
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers, Seed: 5, PartitionSize: 256}
		got, err := RatioBatch(g, b, num, den, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			f    expr.Expr
			part *Result
		}{{num, got.Num}, {den, got.Den}} {
			want, err := Estimate(g, rows, c.f, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.part.Estimate != want.Estimate || c.part.RawVariance != want.RawVariance {
				t.Errorf("workers=%d: SUM(%s) (%.17g, %.17g) vs (%.17g, %.17g)", workers, c.f,
					c.part.Estimate, c.part.RawVariance, want.Estimate, want.RawVariance)
			}
		}
		if first == nil {
			first = got
		}
		if got.Estimate != first.Estimate || got.Variance != first.Variance || got.Cov != first.Cov {
			t.Errorf("workers=%d: ratio (%.17g, %.17g, %.17g) vs (%.17g, %.17g, %.17g)",
				workers, got.Estimate, got.Variance, got.Cov, first.Estimate, first.Variance, first.Cov)
		}
	}
}

// TestEstimateBatchSchemaMismatch mirrors Estimate's validation.
func TestEstimateBatchSchemaMismatch(t *testing.T) {
	_, _, b := batchSample(t, 500, 10)
	wrong, err := core.Bernoulli("elsewhere", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateBatch(wrong, b, expr.Int(1), Options{Workers: 1}); err == nil {
		t.Fatal("mismatched lineage schema accepted")
	}
	if _, err := RatioBatch(wrong, b, expr.Int(1), expr.Int(1), Options{Workers: 1}); err == nil {
		t.Fatal("ratio with mismatched lineage schema accepted")
	}
}

// TestQuantileWith: the Chebyshev (Cantelli) quantile must be
// distribution-free wide, symmetric around the estimate, and the normal
// variant must match the legacy Quantile.
func TestQuantileWith(t *testing.T) {
	r := &Result{Estimate: 100, Variance: 4}
	if got, want := r.QuantileWith(0.95, Normal), r.Quantile(0.95); got != want {
		t.Fatalf("normal quantile: %v vs %v", got, want)
	}
	hi := r.QuantileWith(0.95, Chebyshev)
	lo := r.QuantileWith(0.05, Chebyshev)
	if hi <= r.Quantile(0.95) {
		t.Fatalf("Cantelli 0.95 quantile %v not wider than normal %v", hi, r.Quantile(0.95))
	}
	if hiOff, loOff := hi-r.Estimate, r.Estimate-lo; hiOff != loOff {
		t.Fatalf("Cantelli quantiles asymmetric: +%v vs -%v", hiOff, loOff)
	}
	// Cantelli's k(½) = 1: a distribution-free median bound is μ + σ, not μ.
	if mid := r.QuantileWith(0.5, Chebyshev); mid != r.Estimate+r.StdDev() {
		t.Fatalf("distribution-free median bound %v, want %v", mid, r.Estimate+r.StdDev())
	}
}

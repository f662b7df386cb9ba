package estimator

import (
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/stats"
)

func TestBilinearMomentsReduceToMoments(t *testing.T) {
	lins := []lineage.Vector{{1, 1}, {1, 2}, {2, 2}}
	fs := []float64{2, 3, 5}
	bi, err := BilinearMoments(2, lins, fs, fs)
	if err != nil {
		t.Fatal(err)
	}
	mono := Moments(2, lins, fs)
	for m := range mono {
		if math.Abs(bi[m]-mono[m]) > 1e-12 {
			t.Errorf("Y_%v: bilinear %v ≠ %v", lineage.Set(m), bi[m], mono[m])
		}
	}
}

func TestBilinearMomentsPolarization(t *testing.T) {
	// Y_S(f,g) = (Y_S(f+g,f+g) − Y_S(f−g,f−g)) / 4 — exact identity.
	rng := stats.NewRNG(21)
	lins := make([]lineage.Vector, 60)
	fs := make([]float64, 60)
	gs := make([]float64, 60)
	for i := range lins {
		lins[i] = lineage.Vector{lineage.TupleID(rng.Intn(8)), lineage.TupleID(rng.Intn(5))}
		fs[i] = rng.Float64() * 10
		gs[i] = rng.Float64()*4 - 2
	}
	bi, err := BilinearMoments(2, lins, fs, gs)
	if err != nil {
		t.Fatal(err)
	}
	plus := make([]float64, 60)
	minus := make([]float64, 60)
	for i := range fs {
		plus[i] = fs[i] + gs[i]
		minus[i] = fs[i] - gs[i]
	}
	yp := Moments(2, lins, plus)
	ym := Moments(2, lins, minus)
	for m := range bi {
		want := (yp[m] - ym[m]) / 4
		if math.Abs(bi[m]-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("polarization failed at %v: %v vs %v", lineage.Set(m), bi[m], want)
		}
	}
}

func TestBilinearMomentsValidation(t *testing.T) {
	if _, err := BilinearMoments(1, []lineage.Vector{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestCovarianceMonteCarlo(t *testing.T) {
	// Empirical Cov(X_f, X_g) over repeated Bernoulli samples must match
	// the mean of the covariance estimates.
	pop, it, gr := population(t, 80, 16)
	f1 := expr.Col("v")
	f2 := expr.Mul(expr.Col("v"), expr.Col("v"))
	const p, k = 0.5, 8
	g := design(t, p, k, 16)

	rng := stats.NewRNG(31)
	var xs, ys []float64
	var covEst stats.Welford
	const trials = 3000
	for i := 0; i < trials; i++ {
		s := drawSample(t, it, gr, p, k, rng)
		fs, sumF, err := ops.SumF(s, f1)
		if err != nil {
			t.Fatal(err)
		}
		gs, sumG, err := ops.SumF(s, f2)
		if err != nil {
			t.Fatal(err)
		}
		lins := make([]lineage.Vector, s.Len())
		for j, row := range s.Data {
			lins[j] = row.Lin
		}
		xs = append(xs, sumF/g.A())
		ys = append(ys, sumG/g.A())
		c, err := Covariance(g, lins, fs, gs)
		if err != nil {
			t.Fatal(err)
		}
		covEst.Add(c)
	}
	// Empirical covariance of the two estimators.
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= trials
	my /= trials
	var emp float64
	for i := range xs {
		emp += (xs[i] - mx) * (ys[i] - my)
	}
	emp /= trials - 1
	if stats.RelErr(covEst.Mean(), emp) > 0.2 {
		t.Errorf("E[Côv] = %v vs empirical Cov = %v", covEst.Mean(), emp)
	}
	_ = pop
}

func TestCovarianceOfFWithItselfIsVariance(t *testing.T) {
	_, it, gr := population(t, 50, 10)
	g := design(t, 0.5, 5, 10)
	s := drawSample(t, it, gr, 0.5, 5, stats.NewRNG(3))
	fs, _, err := ops.SumF(s, expr.Col("v"))
	if err != nil {
		t.Fatal(err)
	}
	lins := make([]lineage.Vector, s.Len())
	for j, row := range s.Data {
		lins[j] = row.Lin
	}
	cov, err := Covariance(g, lins, fs, fs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FromLineage(g, lins, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-res.RawVariance) > 1e-9*(1+math.Abs(cov)) {
		t.Errorf("Cov(f,f) = %v ≠ Var = %v", cov, res.RawVariance)
	}
}

func TestCovarianceErrors(t *testing.T) {
	g, _ := core.Bernoulli("r", 0.5)
	if _, err := Covariance(core.Null(g.Schema()), []lineage.Vector{{1}}, []float64{1}, []float64{1}); err == nil {
		t.Error("null GUS accepted")
	}
	if _, err := Covariance(g, []lineage.Vector{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// ratioRows feeds a row-major sample to RatioBatch.
func ratioRows(t *testing.T, g *core.Params, s *ops.Rows, num, den expr.Expr, opts Options) (*RatioResult, error) {
	t.Helper()
	b, err := batch.FromRows(s)
	if err != nil {
		t.Fatal(err)
	}
	return RatioBatch(g, b, num, den, opts)
}

func TestRatioAVGCalibration(t *testing.T) {
	// AVG(f) = ratio(f, 1): unbiased-ish and delta-variance calibrated.
	pop, it, gr := population(t, 120, 20)
	fExpr := expr.Col("v")
	const p, k = 0.5, 10
	g := design(t, p, k, 20)

	// Truth: population average.
	fs, total, err := ops.SumF(pop, fExpr)
	if err != nil {
		t.Fatal(err)
	}
	truth := total / float64(len(fs))

	rng := stats.NewRNG(77)
	var est stats.Welford
	var predVar stats.Welford
	const trials = 2500
	for i := 0; i < trials; i++ {
		s := drawSample(t, it, gr, p, k, rng)
		if s.Len() == 0 {
			continue
		}
		r, err := ratioRows(t, g, s, fExpr, expr.Int(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		est.Add(r.Estimate)
		predVar.Add(r.Variance)
	}
	if stats.RelErr(est.Mean(), truth) > 0.02 {
		t.Errorf("AVG estimate mean %v vs truth %v", est.Mean(), truth)
	}
	ratio := predVar.Mean() / est.Variance()
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("delta variance / empirical = %v", ratio)
	}
}

func TestRatioErrors(t *testing.T) {
	_, it, gr := population(t, 30, 6)
	g := design(t, 0.5, 3, 6)
	s := drawSample(t, it, gr, 0.5, 3, stats.NewRNG(5))
	// Zero denominator.
	if _, err := ratioRows(t, g, s, expr.Col("v"), expr.Int(0), Options{}); err == nil {
		t.Error("zero denominator accepted")
	}
	// Schema mismatch.
	other, _ := core.Bernoulli("x", 0.5)
	if _, err := ratioRows(t, other, s, expr.Col("v"), expr.Int(1), Options{}); err == nil {
		t.Error("schema mismatch accepted")
	}
	// Bad expressions.
	if _, err := ratioRows(t, g, s, expr.Col("zz"), expr.Int(1), Options{}); err == nil {
		t.Error("bad numerator accepted")
	}
	if _, err := ratioRows(t, g, s, expr.Col("v"), expr.Col("zz"), Options{}); err == nil {
		t.Error("bad denominator accepted")
	}
}

func TestRatioComponentsExposed(t *testing.T) {
	_, it, gr := population(t, 40, 8)
	g := design(t, 0.6, 4, 8)
	s := drawSample(t, it, gr, 0.6, 4, stats.NewRNG(9))
	r, err := ratioRows(t, g, s, expr.Col("v"), expr.Int(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Num == nil || r.Den == nil {
		t.Fatal("components missing")
	}
	if r.Estimate != r.Num.Estimate/r.Den.Estimate {
		t.Error("estimate inconsistent with components")
	}
	if r.StdDev() != math.Sqrt(r.Variance) {
		t.Error("StdDev wrong")
	}
}

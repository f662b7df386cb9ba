package estimator

import (
	"testing"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/stats"
)

// diagSample builds n single-relation rows with unique lineage and the
// given per-row values.
func diagSample(fs []float64) (lins []lineage.Vector, cols [][]lineage.TupleID) {
	cols = make([][]lineage.TupleID, 1)
	for i := range fs {
		v := lineage.NewVector(1)
		v[0] = lineage.TupleID(i + 1)
		lins = append(lins, v)
		cols[0] = append(cols[0], v[0])
	}
	return lins, cols
}

func bernoulliGUS(t *testing.T, p float64) *core.Params {
	t.Helper()
	g, err := core.Bernoulli("r", p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDiagnosticsGradesSkew: near-constant values over many groups earn
// an A (tiny variance-of-variance); the same sample with a dominant
// outlier drives the kurtosis ratio up and the grade down.
func TestDiagnosticsGradesSkew(t *testing.T) {
	rng := stats.NewRNG(11)
	const n = 2000
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 10 + rng.Float64()
	}
	skewed := append([]float64(nil), uniform...)
	skewed[7] = 1e6 // one row carries essentially all of Σt²

	g := bernoulliGUS(t, 0.2)
	lins, _ := diagSample(uniform)
	ru, err := FromLineage(g, lins, uniform, Options{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := FromLineage(g, lins, skewed, Options{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	if ru.Diag == nil || rs.Diag == nil {
		t.Fatal("Diagnostics option did not populate Diag")
	}
	if ru.Diag.Grade != "A" {
		t.Errorf("uniform grade = %s (%+v), want A", ru.Diag.Grade, ru.Diag)
	}
	if rs.Diag.Grade == "A" {
		t.Errorf("skewed grade = %s, want worse than A (%+v)", rs.Diag.Grade, rs.Diag)
	}
	if rs.Diag.VarianceRSE <= ru.Diag.VarianceRSE {
		t.Errorf("skewed RSE %v not above uniform RSE %v", rs.Diag.VarianceRSE, ru.Diag.VarianceRSE)
	}
	if rs.Diag.Kurtosis <= ru.Diag.Kurtosis {
		t.Errorf("skewed kurtosis %v not above uniform %v", rs.Diag.Kurtosis, ru.Diag.Kurtosis)
	}
	if ru.Diag.Groups != n {
		t.Errorf("Groups = %d, want %d", ru.Diag.Groups, n)
	}
}

// TestDiagnosticsBitIdentity: enabling diagnostics must not change a
// single output bit — the pass is read-only by construction, and this
// pins it.
func TestDiagnosticsBitIdentity(t *testing.T) {
	_, cols, fs, gs := streamSample(1500, 2, 99)
	g := streamGUS(t, 2)
	for _, workers := range []int{0, 4} {
		base := Options{Workers: workers, MaxVarianceRows: 400, Seed: 7}
		diag := base
		diag.Diagnostics = true

		lins := make([]lineage.Vector, len(fs))
		for i := range fs {
			v := lineage.NewVector(2)
			v[0], v[1] = cols[0][i], cols[1][i]
			lins[i] = v
		}
		r1, err := FromLineage(g, lins, fs, base)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := FromLineage(g, lins, fs, diag)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Diag == nil {
			t.Fatal("diagnosed run missing Diag")
		}
		if r1.Estimate != r2.Estimate || r1.Variance != r2.Variance || r1.RawVariance != r2.RawVariance {
			t.Fatalf("diagnostics perturbed results: %v/%v vs %v/%v",
				r1.Estimate, r1.RawVariance, r2.Estimate, r2.RawVariance)
		}
		for s := range r1.Y {
			if r1.Y[s] != r2.Y[s] || r1.YHat[s] != r2.YHat[s] {
				t.Fatalf("moment %d differs with diagnostics on", s)
			}
		}
		// Ratio path too.
		q1, err := ratioSrc(g, cols, fs, gs, base)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := ratioSrc(g, cols, fs, gs, diag)
		if err != nil {
			t.Fatal(err)
		}
		if q2.Diag == nil || !q2.Diag.Approximate {
			t.Fatalf("ratio Diag = %+v, want approximate diagnostics", q2.Diag)
		}
		if q1.Estimate != q2.Estimate || q1.Variance != q2.Variance || q1.Cov != q2.Cov {
			t.Fatal("ratio diagnostics perturbed results")
		}
	}
}

// TestAccumTopDiagnostics: the streaming group statistics must match the
// string-map pass over the same spans exactly, on arbitrary floats, tail
// included, and must not disturb subsequent Finalize floats.
func TestAccumTopDiagnostics(t *testing.T) {
	_, cols, fs, _ := streamSample(1100, 2, 5)
	wantG, wantS2, wantS4 := oracleStats(cols, fs, ops.Partitions(len(fs), 256))

	a := NewAccum(2, false, 256)
	ref := NewAccum(2, false, 256)
	for _, cut := range [][2]int{{0, 300}, {300, 700}, {700, 1100}} {
		feed(t, a, cols, fs, nil, cut[0], cut[1])
		feed(t, ref, cols, fs, nil, cut[0], cut[1])
		// Mid-stream snapshot: exercised for side effects; the final
		// snapshot below is the exact-match assertion.
		a.TopDiagnostics()
	}
	g, s2, s4 := a.TopDiagnostics()
	if g != wantG || s2 != wantS2 || s4 != wantS4 {
		t.Fatalf("TopDiagnostics = (%d, %v, %v), one-shot = (%d, %v, %v)", g, s2, s4, wantG, wantS2, wantS4)
	}
	// Diagnostics calls must not have perturbed the accumulated moments.
	ma, mr := a.Finalize(), ref.Finalize()
	for s := range ma {
		if ma[s] != mr[s] {
			t.Fatalf("moment %d drifted after TopDiagnostics calls", s)
		}
	}
}

func TestGradeDiag(t *testing.T) {
	cases := []struct {
		groups      int
		rse         float64
		approximate bool
		clamped     bool
		want        string
	}{
		{1000, 0.05, false, false, "A"},
		{1000, 0.2, false, false, "B"},
		{1000, 0.4, false, false, "C"},
		{1000, 0.9, false, false, "D"},
		{20, 0.05, false, false, "B"},  // too few terms: demoted
		{1000, 0.05, true, false, "B"}, // delta-method caps at B
		{1000, 0.05, false, true, "D"}, // clamped variance: D
		{1, 0, false, false, "D"},      // degenerate
	}
	for _, c := range cases {
		if got := gradeDiag(c.groups, c.rse, c.approximate, c.clamped); got != c.want {
			t.Errorf("gradeDiag(%d, %v, %v, %v) = %s, want %s",
				c.groups, c.rse, c.approximate, c.clamped, got, c.want)
		}
	}
}

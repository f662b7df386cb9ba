package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds collided on first draw")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ≈0.5", w.Mean())
	}
	if math.Abs(w.Variance()-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ≈1/12", w.Variance())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) visited %d values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Errorf("normal mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-1) > 0.02 {
		t.Errorf("normal variance = %v", w.Variance())
	}
}

func TestHashIDDeterministicAndUniform(t *testing.T) {
	if HashID(1, 2) != HashID(1, 2) {
		t.Fatal("HashID not deterministic")
	}
	if HashID(1, 2) == HashID(1, 3) || HashID(1, 2) == HashID(2, 2) {
		t.Error("HashID collides on adjacent inputs")
	}
	var w Welford
	for id := uint64(0); id < 50000; id++ {
		v := HashID(99, id)
		if v < 0 || v >= 1 {
			t.Fatalf("HashID out of range: %v", v)
		}
		w.Add(v)
	}
	if math.Abs(w.Mean()-0.5) > 0.01 {
		t.Errorf("HashID mean = %v", w.Mean())
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.05, -1.6448536269514722},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(raw float64) bool {
		q := math.Mod(math.Abs(raw), 0.998) + 0.001 // (0.001, 0.999)
		x := NormalQuantile(q)
		return math.Abs(NormalCDF(x)-q) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileTails(t *testing.T) {
	for _, q := range []float64{1e-10, 1e-6, 1 - 1e-6, 1 - 1e-10} {
		x := NormalQuantile(q)
		if math.Abs(NormalCDF(x)-q) > 1e-12*math.Max(1, math.Abs(q)) && math.Abs(NormalCDF(x)-q) > 1e-13 {
			t.Errorf("tail inversion at q=%v: CDF(%v)=%v", q, x, NormalCDF(x))
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", q)
				}
			}()
			NormalQuantile(q)
		}()
	}
}

func TestHalfWidths(t *testing.T) {
	// Paper §6.4: 95% normal ⇒ 1.96σ; 95% Chebyshev ⇒ 4.47σ.
	if got := NormalHalfWidth(0.95, 1); math.Abs(got-1.9599639845) > 1e-6 {
		t.Errorf("normal 95%% half-width = %v", got)
	}
	if got := ChebyshevHalfWidth(0.95, 1); math.Abs(got-4.4721359550) > 1e-6 {
		t.Errorf("Chebyshev 95%% half-width = %v", got)
	}
	if got := ChebyshevHalfWidth(0.95, 2); math.Abs(got-8.94427191) > 1e-6 {
		t.Errorf("Chebyshev scales with σ: %v", got)
	}
}

func TestHalfWidthPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NormalHalfWidth(0, 1) },
		func() { ChebyshevHalfWidth(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid level did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", w.Mean())
	}
	if math.Abs(w.PopVariance()-4) > 1e-12 {
		t.Errorf("PopVariance = %v", w.PopVariance())
	}
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", w.Variance())
	}
	if math.Abs(w.StdDev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", w.StdDev())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.PopVariance() != 0 {
		t.Error("zero-value Welford not zero")
	}
	w.Add(42)
	if w.Variance() != 0 {
		t.Error("variance of single observation must be 0")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(xs)-1)
		return math.Abs(w.Variance()-naive) <= 1e-8*(1+naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoverage(t *testing.T) {
	var c Coverage
	c.Observe(0, 10, 5)    // hit
	c.Observe(0, 10, 10)   // boundary hit
	c.Observe(0, 10, -1)   // miss
	c.Observe(0, 10, 10.5) // miss
	if c.Trials() != 4 {
		t.Errorf("Trials = %d", c.Trials())
	}
	if c.Rate() != 0.5 {
		t.Errorf("Rate = %v", c.Rate())
	}
	var empty Coverage
	if empty.Rate() != 0 {
		t.Error("empty coverage rate should be 0")
	}
}

func TestWilson(t *testing.T) {
	// Textbook check: 85/100 at 95% gives roughly [0.767, 0.906].
	lo, hi := Wilson(85, 100, 0.95)
	if math.Abs(lo-0.7669) > 0.005 || math.Abs(hi-0.9061) > 0.005 {
		t.Errorf("Wilson(85,100) = [%v, %v], want ≈[0.767, 0.906]", lo, hi)
	}
	// Boundaries stay inside [0,1] and are non-degenerate.
	if lo, hi = Wilson(0, 20, 0.95); lo > 1e-12 || hi <= 0.05 || hi >= 1 {
		t.Errorf("Wilson(0,20) = [%v, %v]", lo, hi)
	}
	if lo, hi = Wilson(20, 20, 0.95); hi < 1-1e-12 || lo <= 0 || lo >= 0.95 {
		t.Errorf("Wilson(20,20) = [%v, %v]", lo, hi)
	}
	// No trials: maximally uninformative.
	if lo, hi = Wilson(0, 0, 0.95); lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%v, %v], want [0, 1]", lo, hi)
	}
	// Interval narrows as trials grow.
	lo1, hi1 := Wilson(9, 10, 0.95)
	lo2, hi2 := Wilson(900, 1000, 0.95)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("interval did not narrow: n=10 width %v, n=1000 width %v", hi1-lo1, hi2-lo2)
	}
	// Coverage.Wilson agrees with the free function.
	var c Coverage
	for i := 0; i < 100; i++ {
		if i < 85 {
			c.Observe(0, 1, 0.5)
		} else {
			c.Observe(0, 1, 2)
		}
	}
	clo, chi := c.Wilson(0.95)
	wlo, whi := Wilson(85, 100, 0.95)
	if clo != wlo || chi != whi {
		t.Errorf("Coverage.Wilson = [%v, %v], Wilson = [%v, %v]", clo, chi, wlo, whi)
	}
	if c.Hits() != 85 {
		t.Errorf("Hits = %d, want 85", c.Hits())
	}
}

func TestWilsonCovers(t *testing.T) {
	// Simulated binomial draws: the 95% Wilson interval should contain
	// the true p in roughly 95% of repetitions (allow generous slack).
	rng := NewRNG(7)
	const p, trials, reps = 0.9, 60, 400
	contained := 0
	for r := 0; r < reps; r++ {
		succ := 0
		for i := 0; i < trials; i++ {
			if rng.Float64() < p {
				succ++
			}
		}
		lo, hi := Wilson(succ, trials, 0.95)
		if lo <= p && p <= hi {
			contained++
		}
	}
	if rate := float64(contained) / reps; rate < 0.90 {
		t.Errorf("Wilson interval contained true p in only %.1f%% of draws", rate*100)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Error("RelErr wrong")
	}
	if RelErr(5, 0) != 5 {
		t.Error("RelErr with zero truth wrong")
	}
	if RelErr(-90, -100) != 0.1 {
		t.Error("RelErr negative wrong")
	}
}

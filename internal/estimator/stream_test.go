package estimator

import (
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/stats"
)

// streamSample builds n rows with nslots-dimensional lineage (slot 0
// unique per row, further slots shared across small ranges — realistic
// join lineage) and pseudo-random f/g values.
func streamSample(n, nslots int, seed uint64) (lins []lineage.Vector, cols [][]lineage.TupleID, fs, gs []float64) {
	rng := stats.NewRNG(seed)
	cols = make([][]lineage.TupleID, nslots)
	for i := 0; i < n; i++ {
		v := lineage.NewVector(nslots)
		v[0] = lineage.TupleID(i + 1)
		for s := 1; s < nslots; s++ {
			v[s] = lineage.TupleID(rng.Intn(n/7+2) + 1)
		}
		lins = append(lins, v)
		for s := 0; s < nslots; s++ {
			cols[s] = append(cols[s], v[s])
		}
		fs = append(fs, rng.Float64()*100-20)
		gs = append(gs, rng.Float64()*10)
	}
	return lins, cols, fs, gs
}

func streamGUS(t *testing.T, nslots int) *core.Params {
	t.Helper()
	ps := make([]*core.Params, nslots)
	rels := []string{"r0", "r1", "r2"}
	probs := []float64{0.31, 0.55, 0.77}
	for s := 0; s < nslots; s++ {
		p, err := core.Bernoulli(rels[s], probs[s])
		if err != nil {
			t.Fatal(err)
		}
		ps[s] = p
	}
	g, err := core.JoinAll(ps...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// feed pushes rows [lo,hi) into the accumulator in one chunk.
func feed(t *testing.T, a *Accum, cols [][]lineage.TupleID, fs, gs []float64, lo, hi int) {
	t.Helper()
	sub := make([][]lineage.TupleID, len(cols))
	for s := range cols {
		sub[s] = cols[s][lo:hi]
	}
	var g []float64
	if gs != nil {
		g = gs[lo:hi]
	}
	if err := a.Add(fs[lo:hi], g, sub); err != nil {
		t.Fatal(err)
	}
}

// TestAccumFinalizeBitIdentical: an Accum fed the sample in ragged chunks
// must finalize to the exact floats the one-shot sharded path produces —
// moments, estimate, and variance — for 1- and 2-slot lineage.
func TestAccumFinalizeBitIdentical(t *testing.T) {
	const n = 10000
	for _, nslots := range []int{1, 2, 3} {
		lins, cols, fs, _ := streamSample(n, nslots, 42)
		g := streamGUS(t, nslots)
		opts := Options{Workers: 3, PartitionSize: 512}

		want, err := FromLineage(g, lins, fs, opts)
		if err != nil {
			t.Fatal(err)
		}

		for _, chunks := range [][]int{{n}, {1, 100, 511, 512, 513, 3000, n}, {37}} {
			a := NewAccum(nslots, false, 512)
			lo := 0
			for ci := 0; lo < n; ci++ {
				sz := chunks[ci%len(chunks)]
				hi := lo + sz
				if hi > n {
					hi = n
				}
				feed(t, a, cols, fs, nil, lo, hi)
				lo = hi
			}
			if a.Rows() != n {
				t.Fatalf("slots=%d: fed %d rows", nslots, a.Rows())
			}
			total := a.Total()
			y := a.Finalize()
			for m := range y {
				if y[m] != want.Y[m] {
					t.Fatalf("slots=%d chunks=%v: Y[%d] = %v, want %v", nslots, chunks, m, y[m], want.Y[m])
				}
			}
			got, err := EstimateFromMoments(g, total, y, a.Rows())
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimate != want.Estimate {
				t.Fatalf("slots=%d: estimate %v vs %v", nslots, got.Estimate, want.Estimate)
			}
			if got.Variance != want.Variance || got.RawVariance != want.RawVariance {
				t.Fatalf("slots=%d: variance %v/%v vs %v/%v",
					nslots, got.Variance, got.RawVariance, want.Variance, want.RawVariance)
			}
			if _, err := a.Finalize(), a.Add(fs[:1], nil, pick(cols, 0, 1)); err == nil {
				t.Fatal("Add after Finalize must error")
			}
		}
	}
}

// TestAccumOnReleasedSpans: spans go back to the pools unzeroed when an
// accumulator is released or finalized, and the next accumulator builds on
// them. A stream stopped early (Release) over NaN values and a ragged
// chunking leaves its spans full of poison; an accumulator fed the real
// sample after it must still finalize to groupMoments' floats exactly, in
// plain and bilinear mode.
func TestAccumOnReleasedSpans(t *testing.T) {
	const n, part = 5000, 512
	for _, nslots := range []int{1, 2, 3} {
		_, cols, fs, gs := streamSample(n, nslots, 42)
		_, poisonCols, _, _ := streamSample(n, nslots, 7)
		poison := make([]float64, n)
		for i := range poison {
			poison[i] = math.NaN()
		}
		for _, bilinear := range []bool{false, true} {
			var g, pg []float64
			if bilinear {
				g, pg = gs, poison
			}
			want := groupMoments(nslots, cols, fs, g, Options{Workers: 2, PartitionSize: part}, nil)
			for round := 0; round < 3; round++ {
				early := NewAccum(nslots, bilinear, part)
				feed(t, early, poisonCols, poison, pg, 0, 3*part+100)
				early.Release()

				a := NewAccum(nslots, bilinear, part)
				for lo := 0; lo < n; lo += 700 {
					feed(t, a, cols, fs, g, lo, min(lo+700, n))
				}
				got := a.Finalize()
				for m := range want {
					if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
						t.Fatalf("slots=%d bilinear=%v round %d: Y[%d] = %v, want %v", nslots, bilinear, round, m, got[m], want[m])
					}
				}
			}
		}
	}
}

func pick(cols [][]lineage.TupleID, lo, hi int) [][]lineage.TupleID {
	out := make([][]lineage.TupleID, len(cols))
	for s := range cols {
		out[s] = cols[s][lo:hi]
	}
	return out
}

// TestAccumLiveTracksPrefix: the live snapshot after each chunk must agree
// with a fresh one-shot computation over the prefix to float tolerance
// (the running sums are incremental, so last-bit drift is allowed).
func TestAccumLiveTracksPrefix(t *testing.T) {
	const n = 6000
	lins, cols, fs, _ := streamSample(n, 2, 9)
	g := streamGUS(t, 2)
	opts := Options{Workers: 2, PartitionSize: 512}
	a := NewAccum(2, false, 512)
	for lo := 0; lo < n; lo += 700 {
		hi := lo + 700
		if hi > n {
			hi = n
		}
		feed(t, a, cols, fs, nil, lo, hi)
		want, err := FromLineage(g, lins[:hi], fs[:hi], opts)
		if err != nil {
			t.Fatal(err)
		}
		y := a.Moments()
		for m := range y {
			if relDiff(y[m], want.Y[m]) > 1e-9 {
				t.Fatalf("prefix %d: Y[%d] = %v, want %v", hi, m, y[m], want.Y[m])
			}
		}
		if relDiff(a.Total(), sumOf(fs[:hi])) > 1e-9 {
			t.Fatalf("prefix %d: total %v", hi, a.Total())
		}
	}
}

func sumOf(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

// TestAccumBilinearRatioBitIdentical: the streaming ratio (AVG) path must
// finalize bit-identically to the one-shot delta-method Ratio machinery.
func TestAccumBilinearRatioBitIdentical(t *testing.T) {
	const n = 8000
	_, cols, nfs, dfs := streamSample(n, 2, 77)
	g := streamGUS(t, 2)
	opts := Options{Workers: 2, PartitionSize: 512}

	want, err := ratioSrc(g, cols, nfs, dfs, opts)
	if err != nil {
		t.Fatal(err)
	}

	aNN := NewAccum(2, false, 512)
	aDD := NewAccum(2, false, 512)
	aND := NewAccum(2, true, 512)
	for lo := 0; lo < n; lo += 1234 {
		hi := lo + 1234
		if hi > n {
			hi = n
		}
		feed(t, aNN, cols, nfs, nil, lo, hi)
		feed(t, aDD, cols, dfs, nil, lo, hi)
		feed(t, aND, cols, nfs, dfs, lo, hi)
	}
	got, err := RatioFromMoments(g, aNN.Total(), aDD.Total(),
		aNN.Finalize(), aDD.Finalize(), aND.Finalize(), n)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate || got.Variance != want.Variance || got.Cov != want.Cov {
		t.Fatalf("ratio: got (%v, %v, %v), want (%v, %v, %v)",
			got.Estimate, got.Variance, got.Cov, want.Estimate, want.Variance, want.Cov)
	}
}

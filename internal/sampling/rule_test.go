package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"github.com/sampling-algebra/gus/internal/stats"
)

// wantThreshold is ⌈p·2⁵³⌉ clamped to [0, 2⁵³], with NaN keeping nothing.
func wantThreshold(p float64) uint64 {
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(math.Ldexp(p, 53)))
}

// uniformOf assembles row i's 53-digit uniform from all 53 digit words of
// its 64-row word, most significant digit first.
func uniformOf(sub uint64, i int) uint64 {
	base, j := i&^63, uint(i&63)
	var u uint64
	for d := 0; d < 53; d++ {
		u = u<<1 | stats.Hash64(sub, uint64(base+d))>>j&1
	}
	return u
}

// spanCover splits [lo, hi) at boundaries that fall inside 64-row words
// as well as on them, plus a span that starts and ends inside one word.
func spanCover(lo, hi int) [][2]int {
	cuts := []int{lo, lo + 1, lo + 50, 128, 129, 192, 250, 300, hi - 7, hi}
	var out [][2]int
	for i := 1; i < len(cuts); i++ {
		out = append(out, [2]int{cuts[i-1], cuts[i]})
	}
	return out
}

// TestAppendRowsExact: the word-at-a-time ByRow rule keeps row i iff its
// full 53-digit uniform is below ⌈P·2⁵³⌉ — exactly, row by row, over spans
// that start and end mid-word. The same threshold reproduces HashID < P,
// the comparison ByBlock and ByLineage make.
func TestAppendRowsExact(t *testing.T) {
	const lo, hi = 13, 1013
	// The edges (nothing, the smallest and largest fractions below 1,
	// everything, out of range, NaN), dyadic rates and rates with endless
	// binary digits.
	probs := []float64{0, 0x1p-53, 0.01, 0.2, 0.25, 1.0 / 3, 0.5, 0.9, 1 - 0x1p-53, 1, 1.5, math.NaN()}
	for _, sub := range []uint64{7, 0x9e3779b97f4a7c15} {
		for _, p := range probs {
			name := fmt.Sprintf("sub=%#x p=%v", sub, p)
			th := wantThreshold(p)
			if got := threshold(p); got != th {
				t.Fatalf("%s: threshold = %d, want %d", name, got, th)
			}
			for id := uint64(0); id < 4096; id++ {
				if h := stats.HashID(sub, id) < p; h != (stats.Hash64(sub, id)>>11 < th) {
					t.Fatalf("%s id=%d: HashID < p is %v, threshold disagrees", name, id, h)
				}
			}
			r := &Rule{Keying: ByRow, Sub: sub, P: p}
			prefix := []int32{-1, -2}
			got := prefix
			for _, s := range spanCover(lo, hi) {
				got = r.AppendRows(s[0], s[1], got)
			}
			if got[0] != -1 || got[1] != -2 {
				t.Fatalf("%s: AppendRows overwrote dst's prefix", name)
			}
			got = got[2:]
			var want []int32
			for i := lo; i < hi; i++ {
				if uniformOf(sub, i) < th {
					want = append(want, int32(i))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: kept %d rows, want %d\n got %v\nwant %v", name, len(got), len(want), got, want)
			}
			if whole := r.AppendRows(lo, hi, nil); fmt.Sprint(whole) != fmt.Sprint(want) {
				t.Fatalf("%s: one span kept %v, want %v", name, whole, want)
			}
		}
	}
}

// TestAppendRowsBlock: ByBlock keeps row i iff HashID(Sub, i/Block) < P,
// at block sizes that do and do not divide 64, over mid-word spans.
func TestAppendRowsBlock(t *testing.T) {
	const lo, hi = 13, 1013
	for _, block := range []int{1, 7, 8, 64, 100} {
		for _, p := range []float64{0, 0.3, 0.5, 1, math.NaN()} {
			r := &Rule{Keying: ByBlock, Sub: 11, P: p, Block: block}
			var got, want []int32
			for _, s := range spanCover(lo, hi) {
				got = r.AppendRows(s[0], s[1], got)
			}
			for i := lo; i < hi; i++ {
				if stats.HashID(r.Sub, uint64(i/block)) < p {
					want = append(want, int32(i))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("block=%d p=%v: kept %v, want %v", block, p, got, want)
			}
		}
	}
}

// rowMask is the ByRow keep set of rows [0, n) as a bitset.
func rowMask(sub uint64, p float64, n int) []uint64 {
	r := &Rule{Keying: ByRow, Sub: sub, P: p}
	m := make([]uint64, (n+63)/64)
	for _, i := range r.AppendRows(0, n, nil) {
		m[i/64] |= 1 << (i % 64)
	}
	return m
}

// shifted returns the bitset whose bit i is m's bit i+lag.
func shifted(m []uint64, lag int) []uint64 {
	out := make([]uint64, len(m))
	w, s := lag/64, uint(lag%64)
	for i := range out {
		if i+w < len(m) {
			out[i] = m[i+w] >> s
		}
		if s != 0 && i+w+1 < len(m) {
			out[i] |= m[i+w+1] << (64 - s)
		}
	}
	return out
}

func ones(m []uint64) (n int) {
	for _, x := range m {
		n += bits.OnesCount64(x)
	}
	return n
}

// chi2 is the 2×2 independence statistic of bitsets a and b over their
// first n bits (both zero beyond n).
func chi2(a, b []uint64, n int) float64 {
	var n11 int
	for i := range a {
		n11 += bits.OnesCount64(a[i] & b[i])
	}
	na, nb := float64(ones(a)), float64(ones(b))
	N := float64(n)
	d := float64(n11)*N - na*nb // n·(n11·n00 − n10·n01)
	return d * d / (na * (N - na) * nb * (N - nb)) * N
}

// TestKeepRuleQuality: at fixed sub-seeds over 2²² rows, the word rule's
// inclusion rate matches t/2⁵³ (|z| < 3.3) and its decisions are pairwise
// independent (2×2 χ² below 10.8, the 0.1 % point of χ²₁): between rows
// `lag` apart, inside one word and across adjacent words, and between the
// masks of two sub-seeds — the two relations of a sampled join.
func TestKeepRuleQuality(t *testing.T) {
	const n = 1 << 22
	subs := [2]uint64{0x243f6a8885a308d3, 0x13198a2e03707344}
	var worstZ, worstChi2 float64
	for _, p := range []float64{0.01, 0.2, 0.25, 1.0 / 3, 0.5, 0.9} {
		var masks [2][]uint64
		for s, sub := range subs {
			m := rowMask(sub, p, n)
			masks[s] = m
			q := float64(threshold(p)) / (1 << 53)
			z := (float64(ones(m)) - n*q) / math.Sqrt(n*q*(1-q))
			worstZ = max(worstZ, math.Abs(z))
			if math.Abs(z) >= 3.3 {
				t.Errorf("p=%v sub=%#x: kept %d of %d rows, z = %.2f", p, sub, ones(m), n, z)
			}
			for _, lag := range []int{1, 2, 31, 32, 63, 64, 65} {
				// Row i against row i+lag, for i < n−lag.
				head := append([]uint64(nil), m...)
				for i := n - lag; i < n; i++ {
					head[i/64] &^= 1 << (i % 64)
				}
				c := chi2(head, shifted(m, lag), n-lag)
				worstChi2 = max(worstChi2, c)
				if c >= 10.8 {
					t.Errorf("p=%v sub=%#x lag=%d: χ² = %.2f", p, sub, lag, c)
				}
			}
		}
		c := chi2(masks[0], masks[1], n)
		worstChi2 = max(worstChi2, c)
		if c >= 10.8 {
			t.Errorf("p=%v: χ² between sub-seeds = %.2f", p, c)
		}
	}
	t.Logf("worst |z| = %.2f, worst χ² = %.2f", worstZ, worstChi2)
}

// BenchmarkKeepRule decides 2²⁰ rows by the word rule (Rule.AppendRows)
// and, as the baseline, by one HashID per row in a selection loop.
func BenchmarkKeepRule(b *testing.B) {
	const n = 1 << 20
	dst := make([]int32, 0, n)
	for _, pct := range []int{1, 25, 50, 90} {
		p := float64(pct) / 100
		r := &Rule{Keying: ByRow, Sub: 0x243f6a8885a308d3, P: p}
		b.Run(fmt.Sprintf("p=%d%%/word", pct), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				dst = r.AppendRows(0, n, dst[:0])
			}
		})
		// The per-row loop writes every candidate and advances on keeps,
		// except at rates whose keep branch predicts well.
		branchy := p < 0.0625 || p > 0.9375
		b.Run(fmt.Sprintf("p=%d%%/perrow", pct), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				out, k := dst[:n], 0
				for i := 0; i < n; i++ {
					if branchy {
						if stats.HashID(r.Sub, uint64(i)) < p {
							out[k] = int32(i)
							k++
						}
						continue
					}
					out[k] = int32(i)
					if stats.HashID(r.Sub, uint64(i)) < p {
						k++
					}
				}
				dst = out[:k]
			}
		})
	}
}

package estimator

import (
	"fmt"
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/stats"
)

// The order-aware kernel's contract is bit-identity: whichever mode a
// mask runs in — singletons, runs, hashed — and however the sample is
// chunked, every float equals the string-keyed oracle's (oracle_test.go).
// These tests drive it over the lineage shapes that pick each mode and
// each transition between them.

// lineageShapes are the ID-column shapes that matter to the kernel.
var lineageShapes = []string{
	"increasing", // every slot strictly increasing: all masks singletons
	"runs",       // every slot non-decreasing, runs straddling span boundaries
	"mixed",      // per slot: strict, runs or random — the join shape
	"broken",     // sorted, then one smaller ID at a random row
	"shuffled",   // small random domain: all masks hashed
	"all-equal",  // one group
	"empty",
}

// shapedSample draws rows of nslots-dimensional lineage in the given shape
// with association-sensitive values (sums of them round differently in
// different orders, so a wrong accumulation order shows).
func shapedSample(rng *stats.RNG, shape string, rows, nslots, partSize int) (lin [][]lineage.TupleID, fs, gs []float64) {
	if shape == "empty" {
		rows = 0
	}
	lin = make([][]lineage.TupleID, nslots)
	for s := range lin {
		kind := shape
		if shape == "mixed" || shape == "broken" {
			kind = []string{"increasing", "runs", "shuffled"}[rng.Intn(3)]
			if shape == "broken" && kind == "shuffled" {
				kind = "runs"
			}
		}
		col := make([]lineage.TupleID, rows)
		id := lineage.TupleID(1 + rng.Intn(5))
		left := 0 // rows left in the current run
		for i := range col {
			switch kind {
			case "increasing":
				id += lineage.TupleID(1 + rng.Intn(3))
			case "runs":
				if left == 0 {
					id += lineage.TupleID(1 + rng.Intn(2))
					left = 1 + rng.Intn(2*partSize+1)
				}
				left--
			case "shuffled":
				id = lineage.TupleID(1 + rng.Intn(rows/3+2))
			case "all-equal":
				id = 7
			}
			col[i] = id
		}
		lin[s] = col
	}
	if shape == "broken" && rows > 1 {
		at := 1 + rng.Intn(rows-1)
		for s := range lin {
			if s == 0 || rng.Intn(2) == 0 {
				lin[s][at] = lin[s][rng.Intn(at)] // an ID seen before: smaller, or an old group again
				if lin[s][at] >= lin[s][at-1] {
					lin[s][at] = lin[s][at-1] - 1
				}
			}
		}
	}
	fs = make([]float64, rows)
	gs = make([]float64, rows)
	for i := range fs {
		fs[i] = rng.Float64()*100 - 20
		gs[i] = rng.Float64()*10 - 1
	}
	return lin, fs, gs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d moments, want %d", what, len(got), len(want))
	}
	for s := range got {
		if !sameBits(got[s], want[s]) {
			t.Fatalf("%s: Y[%d] = %v (%#x), want %v (%#x)", what, s,
				got[s], math.Float64bits(got[s]), want[s], math.Float64bits(want[s]))
		}
	}
}

// forcedHashMoments is groupMoments with every mask on the hash fallback:
// the same one-shot kernel — shards built on the worker pool, merged in
// span order — with the hashed mode forced.
func forcedHashMoments(n int, lin [][]lineage.TupleID, fs, gs []float64, opts Options) []float64 {
	out := groupMoments(n, lin, fs, gs, opts, nil) // for Y_∅
	for m := 1; m < len(out); m++ {
		out[m] = forcedHashMask(lineage.Set(m).Members(), lin, fs, gs, opts, false).exact()
	}
	return out
}

// forcedHashMask folds the whole sample into one hashed mask the way
// groupMoments folds a mask it finds unordered.
func forcedHashMask(slots []int, lin [][]lineage.TupleID, fs, gs []float64, opts Options, top bool) *maskAccum {
	views := spanViews(lin, fs, gs, opts.partitionSize())
	ms := new(maskAccum)
	ms.reset(hashed, slots, gs != nil, top)
	ms.foldSpans(views, make([]shard, len(views)), opts.Workers)
	return ms
}

// checkOneShot asserts order-aware ≡ forced-hash ≡ oracle on one sample,
// sharded and serial, plain and bilinear, and the group statistics ≡ the
// string-map pass over the same spans.
func checkOneShot(t *testing.T, n int, lin [][]lineage.TupleID, fs, gs []float64, partSize int) {
	t.Helper()
	for _, bilinear := range []bool{false, true} {
		g := gs
		if !bilinear {
			g = nil
		}
		sharded := Options{Workers: 2, PartitionSize: partSize}
		want := oracleMoments(n, lin, fs, g, ops.Partitions(len(fs), partSize))
		requireSameVec(t, fmt.Sprintf("sharded bilinear=%v", bilinear), groupMoments(n, lin, fs, g, sharded, nil), want)
		requireSameVec(t, fmt.Sprintf("forced-hash bilinear=%v", bilinear), forcedHashMoments(n, lin, fs, g, sharded), want)

		serial := oracleMoments(n, lin, fs, g, ops.Partitions(len(fs), 0))
		requireSameVec(t, fmt.Sprintf("serial bilinear=%v", bilinear), groupMoments(n, lin, fs, g, Options{}, nil), serial)
		requireSameVec(t, fmt.Sprintf("serial forced-hash bilinear=%v", bilinear), forcedHashMoments(n, lin, fs, g, Options{}), serial)
	}
	for _, opts := range []Options{{Workers: 2, PartitionSize: partSize}, {}} {
		wantG, wantS2, wantS4 := oracleStats(lin, fs, ops.Partitions(len(fs), opts.PartitionSize))
		var st groupStats
		with := groupMoments(n, lin, fs, nil, opts, &st)
		if st.groups != wantG || !sameBits(st.sum2, wantS2) || !sameBits(st.sum4, wantS4) {
			t.Fatalf("stats (workers=%d) = (%d, %v, %v), string-map pass = (%d, %v, %v)",
				opts.Workers, st.groups, st.sum2, st.sum4, wantG, wantS2, wantS4)
		}
		requireSameVec(t, "moments with stats", with, groupMoments(n, lin, fs, nil, opts, nil))
		var forced groupStats
		forced.groups, forced.sum2, forced.sum4 = forcedHashMask(lineage.Full(n).Members(), lin, fs, nil, opts, true).stats(nil)
		if forced != st {
			t.Fatalf("forced-hash stats %+v, order-aware %+v", forced, st)
		}
	}
}

// forceHashed puts every mask of a fresh accumulator on the hash fallback.
func forceHashed(a *Accum) *Accum {
	for m := 1; m < len(a.masks); m++ {
		ms := a.masks[m]
		ms.reset(hashed, ms.slots, a.bilinear, ms.top)
	}
	a.ordered = 0
	return a
}

// checkStreaming feeds the sample in the given chunk sizes to an
// order-aware and a forced-hash accumulator and requires, after every
// chunk, bit-identical live moments, totals and group statistics; at the
// end, Finalize ≡ the one-shot sharded moments.
func checkStreaming(t *testing.T, n int, lin [][]lineage.TupleID, fs, gs []float64, partSize int, chunks []int) {
	t.Helper()
	for _, bilinear := range []bool{false, true} {
		g := gs
		if !bilinear {
			g = nil
		}
		a := NewAccum(n, bilinear, partSize)
		h := forceHashed(NewAccum(n, bilinear, partSize))
		lo := 0
		for _, c := range chunks {
			hi := lo + c
			if hi > len(fs) {
				hi = len(fs)
			}
			feed(t, a, lin, fs, g, lo, hi)
			feed(t, h, lin, fs, g, lo, hi)
			lo = hi
			requireSameVec(t, fmt.Sprintf("live moments at row %d bilinear=%v", hi, bilinear), a.Moments(), h.Moments())
			if !sameBits(a.Total(), h.Total()) || !sameBits(a.TotalG(), h.TotalG()) {
				t.Fatalf("totals at row %d: (%v, %v) vs hashed (%v, %v)", hi, a.Total(), a.TotalG(), h.Total(), h.TotalG())
			}
			ag, a2, a4 := a.TopDiagnostics()
			hg, h2, h4 := h.TopDiagnostics()
			if ag != hg || !sameBits(a2, h2) || !sameBits(a4, h4) {
				t.Fatalf("TopDiagnostics at row %d = (%d, %v, %v), hashed = (%d, %v, %v)", hi, ag, a2, a4, hg, h2, h4)
			}
		}
		if lo != len(fs) {
			t.Fatalf("chunks cover %d of %d rows", lo, len(fs))
		}
		want := groupMoments(n, lin, fs, g, Options{Workers: 2, PartitionSize: partSize}, nil)
		requireSameVec(t, fmt.Sprintf("Finalize bilinear=%v", bilinear), a.Finalize(), want)
		requireSameVec(t, fmt.Sprintf("hashed Finalize bilinear=%v", bilinear), h.Finalize(), want)
		ag, a2, a4 := a.TopDiagnostics()
		hg, h2, h4 := h.TopDiagnostics()
		if ag != hg || !sameBits(a2, h2) || !sameBits(a4, h4) {
			t.Fatalf("final TopDiagnostics = (%d, %v, %v), hashed = (%d, %v, %v)", ag, a2, a4, hg, h2, h4)
		}
	}
}

// randomChunks splits rows into random chunk sizes, some empty, some
// spanning several partitions.
func randomChunks(rng *stats.RNG, rows, partSize int) []int {
	var out []int
	for left := rows; left > 0; {
		c := rng.Intn(3*partSize + 1)
		if c > left {
			c = left
		}
		out = append(out, c)
		left -= c
	}
	return append(out, 0)
}

func TestOrderAwareMomentsMatchOracle(t *testing.T) {
	for _, shape := range lineageShapes {
		for nslots := 1; nslots <= 3; nslots++ {
			t.Run(fmt.Sprintf("%s/n=%d", shape, nslots), func(t *testing.T) {
				for seed := uint64(1); seed <= 12; seed++ {
					rng := stats.NewRNG(seed*131 + uint64(nslots))
					partSize := 1 + rng.Intn(24)
					rows := rng.Intn(8 * partSize)
					lin, fs, gs := shapedSample(rng, shape, rows, nslots, partSize)
					checkOneShot(t, nslots, lin, fs, gs, partSize)
					checkStreaming(t, nslots, lin, fs, gs, partSize, randomChunks(rng, len(fs), partSize))
				}
			})
		}
	}
}

// TestOrderModes pins which mode each shape selects — so the equivalence
// suite above is known to exercise all three, not the fallback thrice.
func TestOrderModes(t *testing.T) {
	col := func(ids ...lineage.TupleID) []lineage.TupleID { return ids }
	tr := newOrderTracker(3)
	tr.observe([][]lineage.TupleID{col(1, 2, 5), col(4, 4, 9), col(3, 1, 2)})
	want := []slotOrder{strictlyIncreasing, nonDecreasing, unordered}
	for s, w := range want {
		if tr.order[s] != w {
			t.Fatalf("slot %d order = %d, want %d", s, tr.order[s], w)
		}
	}
	modes := map[lineage.Set]maskMode{
		0b001: singletons, 0b010: runs, 0b100: hashed,
		0b011: singletons, 0b101: singletons, 0b110: hashed, 0b111: singletons,
	}
	for set, w := range modes {
		if got := modeFor(set.Members(), tr.order); got != w {
			t.Errorf("mask %03b mode = %d, want %d", set, got, w)
		}
	}
	// Order is judged across chunk boundaries and only degrades.
	tr.observe([][]lineage.TupleID{col(5, 6), col(9, 10), col(7, 8)})
	if tr.order[0] != nonDecreasing || tr.order[1] != nonDecreasing || tr.order[2] != unordered {
		t.Fatalf("after second chunk: %v", tr.order)
	}
	tr.observe([][]lineage.TupleID{col(1), col(11), col(9)})
	if tr.order[0] != unordered || tr.order[1] != nonDecreasing {
		t.Fatalf("after third chunk: %v", tr.order)
	}
}

// TestAccumOrderBreakRebuilds: a stream that is ordered for many waves and
// then delivers a smaller ID must come out exactly as if it had been hashed
// from the start, and must stop retaining folded rows once nothing is
// order-aware any more.
func TestAccumOrderBreakRebuilds(t *testing.T) {
	const rows, part = 5000, 64
	rng := stats.NewRNG(42)
	lin, fs, gs := shapedSample(rng, "increasing", rows, 2, part)
	breakAt := 3333
	lin[0][breakAt], lin[1][breakAt] = lin[0][10], lin[1][20]
	chunks := randomChunks(rng, rows, part)
	checkStreaming(t, 2, lin, fs, gs, part, chunks)

	held := func(a *Accum) (n int) {
		for i := range a.spans {
			n += a.spans[i].len()
		}
		return n
	}
	a := NewAccum(2, false, part)
	feed(t, a, lin, fs, nil, 0, breakAt)
	if a.ordered != 3 || held(a) != breakAt {
		t.Fatalf("before the break: %d order-aware masks, %d rows held; want 3, %d", a.ordered, held(a), breakAt)
	}
	feed(t, a, lin, fs, nil, breakAt, rows)
	if a.ordered != 0 || held(a) >= part {
		t.Fatalf("after the break: %d order-aware masks, %d rows held; want 0, < %d", a.ordered, held(a), part)
	}
}

// FuzzOrderAwareMoments decodes arbitrary bytes into a small sample — slot
// count, partition size, chunk size, per-row ID steps (negative, zero,
// positive) and values — and checks the same equivalences as the seeded
// suite. The corpus under testdata/fuzz holds one input per lineage shape.
func FuzzOrderAwareMoments(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 400 {
			return
		}
		n := 1 + int(data[0])%3
		partSize := 1 + int(data[1])%9
		chunk := 1 + int(data[2])%13
		data = data[3:]
		rows := len(data) / (n + 1)
		lin := make([][]lineage.TupleID, n)
		for s := range lin {
			lin[s] = make([]lineage.TupleID, rows)
		}
		fs := make([]float64, rows)
		gs := make([]float64, rows)
		id := make([]int, n)
		for s := range id {
			id[s] = 100
		}
		for i := 0; i < rows; i++ {
			row := data[i*(n+1) : (i+1)*(n+1)]
			for s := 0; s < n; s++ {
				id[s] += int(row[s]%5) - 1 // step −1 … +3
				if id[s] < 1 {
					id[s] = 1
				}
				lin[s][i] = lineage.TupleID(id[s])
			}
			fs[i] = float64(int8(row[n])) * 0.1
			gs[i] = fs[i]*1.7 + 0.3
		}
		checkOneShot(t, n, lin, fs, gs, partSize)
		var chunks []int
		for left := rows; left > 0; left -= chunk {
			chunks = append(chunks, min(chunk, left))
		}
		checkStreaming(t, n, lin, fs, gs, partSize, chunks)
	})
}

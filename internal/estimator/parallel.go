// Partition-sharded accumulation of the Theorem-1 sums. The SBox needs
// three row-scale passes: evaluating f over the sample (Σf and the
// per-row values), the Y_S group-by-lineage moments (§6.3), and their
// bilinear generalization. Each pass here splits the rows into fixed-size
// partitions (ops.Partitions); per-row values and Σf are accumulated one
// partition per task on the worker pool and combined in partition index
// order, and each moment mask folds the partitions into the moment
// kernel (maskAccum) in partition order — a hashed mask building its
// per-partition shards on the worker pool first.
//
// Determinism: partition boundaries and merge order depend only on the
// data and the partition size — never on the worker count — so every
// Workers value produces bit-identical floats (≤ 1 runs the partitions on
// the calling goroutine). Group totals are enumerated in first-seen order
// (by partition, then by row).
package estimator

import (
	"slices"
	"sync"

	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// partitionSize resolves the accumulator morsel size.
func (o Options) partitionSize() int {
	if o.PartitionSize > 0 {
		return o.PartitionSize
	}
	return ops.DefaultPartitionSize
}

// totalOf sums per-row values with the same partition structure the other
// accumulators use, so the Σf entering the estimate is worker-count
// independent.
func totalOf(fs []float64, opts Options) float64 {
	spans := ops.Partitions(len(fs), opts.partitionSize())
	partials := make([]float64, len(spans))
	//gus:ctx-ok pure CPU shard over a materialized sample, below cancellation granularity
	_ = ops.ForEachPart(opts.Workers, len(spans), func(p int) error {
		var acc float64
		for i := spans[p].Lo; i < spans[p].Hi; i++ {
			acc += fs[i]
		}
		partials[p] = acc
		return nil
	})
	var t float64
	for _, p := range partials {
		t += p
	}
	return t
}

// linMomentSeed decorrelates moment-group hashes from other key domains.
const linMomentSeed = 0x94d049bb133111eb

// projHashLin returns the canonical hash of row i's lineage projected onto
// slots: per-slot ID hashes combined in ascending slot order. Group
// identity is decided by projEqualLin's full ID compare, never by the hash.
func projHashLin(lin [][]lineage.TupleID, slots []int, i int) uint64 {
	h := uint64(linMomentSeed)
	for _, s := range slots {
		h = hashtab.Combine(h, hashtab.Mix(uint64(lin[s][i])))
	}
	return h
}

// projEqualLin reports whether rows i and j project identically onto slots.
func projEqualLin(lin [][]lineage.TupleID, slots []int, i, j int) bool {
	for _, s := range slots {
		if lin[s][i] != lin[s][j] {
			return false
		}
	}
	return true
}

// grouperPool recycles the open-addressing tables span shards are built
// on, so per-mask, per-span grouping reuses buffers.
var grouperPool = sync.Pool{New: func() any { return &hashtab.Grouper{} }}

// groupStats are the full-mask group statistics behind the variance
// diagnostics: the group count and Σt², Σt⁴ over the per-group totals t
// of f — each total its span partials added in span order, the powers in
// first-seen order (maskAccum.stats).
type groupStats struct {
	groups     int
	sum2, sum4 float64
}

// groupMoments computes the §6.3 Y_S moments — with gs non-nil the
// bilinear cross moments Y_S(f,g) (see BilinearMoments) — one mask at a
// time through the kernel the streaming Accum folds with: it observes each
// lineage slot's order once, lets that pick every mask's mode, and folds
// the mask over zero-copy span views of the sample. With stats non-nil it
// also fills the full-mask group statistics.
func groupMoments(n int, lin [][]lineage.TupleID, fs, gs []float64, opts Options, stats *groupStats) []float64 {
	out := make([]float64, 1<<uint(n))
	totF := totalOf(fs, opts)
	if gs != nil {
		out[0] = totF * totalOf(gs, opts)
	} else {
		out[0] = totF * totF
	}
	track := newOrderTracker(n)
	track.observe(lin)
	views := spanViews(lin, fs, gs, opts.partitionSize())
	var shards []shard
	var ms maskAccum
	for m := 1; m < len(out); m++ {
		slots := lineage.Set(m).Members()
		top := m == len(out)-1 && stats != nil
		ms.reset(modeFor(slots, track.order), slots, gs != nil, top)
		if ms.mode == hashed && shards == nil {
			shards = make([]shard, len(views))
		}
		ms.foldSpans(views, shards, opts.Workers)
		out[m] = ms.exact()
		if top {
			stats.groups, stats.sum2, stats.sum4 = ms.stats(nil)
		}
	}
	return out
}

// spanViews points one chunk at each size-row span of the sample's
// columns (the ops.Partitions spans), the views' lineage column headers
// sharing one allocation.
func spanViews(lin [][]lineage.TupleID, fs, gs []float64, size int) []chunk {
	views := make([]chunk, (len(fs)+size-1)/size)
	cols := make([][]lineage.TupleID, len(views)*len(lin))
	for p := range views {
		lo := p * size
		views[p].lin = cols[p*len(lin) : p*len(lin) : (p+1)*len(lin)]
		views[p].view(lin, fs, gs, lo, min(lo+size, len(fs)))
	}
	return views
}

// foldSpans folds a whole sample, given as its span views, into a freshly
// reset mask. An order-aware mask folds the views in order; a hashed one
// builds every span's shard on the worker pool (into shards, one per
// view), then merges them in span order into group arrays presized to
// the shards' group total.
func (ms *maskAccum) foldSpans(views []chunk, shards []shard, workers int) {
	if ms.mode != hashed {
		for p := range views {
			ms.ordMask.fold(&views[p])
		}
		return
	}
	slots, bilinear := ms.slots, ms.bilinear
	//gus:ctx-ok pure CPU shard over a materialized sample, below cancellation granularity
	_ = ops.ForEachPart(workers, len(views), func(p int) error {
		shards[p].build(&views[p], slots, bilinear)
		return nil
	})
	groups := 0
	for p := range shards {
		groups += len(shards[p].rows)
	}
	ms.g.Reset(groups)
	ms.keyIDs = slices.Grow(ms.keyIDs, groups*len(ms.slots))
	ms.fTot = slices.Grow(ms.fTot, groups)
	if ms.bilinear {
		ms.gTot = slices.Grow(ms.gTot, groups)
	}
	for p := range views {
		ms.merge(&shards[p], &views[p])
	}
}

// Partition-sharded accumulation of the Theorem-1 sums. The SBox needs
// three row-scale passes: evaluating f over the sample (Σf and the
// per-row values), the Y_S group-by-lineage moments (§6.3), and their
// bilinear generalization. Each pass here splits the rows into fixed-size
// partitions (ops.Partitions), accumulates a private shard per partition
// on the worker pool, and merges shards in partition index order.
//
// Determinism: partition boundaries and merge order depend only on the
// data and the partition size — never on the worker count — so every
// Workers value produces bit-identical floats (≤ 1 runs the partitions on
// the calling goroutine). Group totals are enumerated in first-seen order
// (by partition, then by row).
package estimator

import (
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

// spans resolves the accumulator partitions over n rows: fixed-size
// morsels.
func (o Options) spans(n int) []ops.Span { return ops.Partitions(n, o.partitionSize()) }

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

// grouperPool recycles the open-addressing tables behind shard building,
// so per-mask, per-partition accumulation reuses buffers.
var grouperPool = sync.Pool{New: func() any { return &hashtab.Grouper{} }}

// hashShard is one partition's group accumulator for one mask on the
// fallback path (modeFor: hashed): group representatives (first row of
// each group, global index) in first-seen order with the group's value
// sums. Keys are never materialized.
type hashShard struct {
	rows   []int32
	hashes []uint64
	fsum   []float64
	gsum   []float64 // nil for plain (f·f) moments
}

// hashShardFor builds partition span's shard for the mask's slot list.
func hashShardFor(span ops.Span, lin [][]lineage.TupleID, slots []int, fs, gs []float64) hashShard {
	g := grouperPool.Get().(*hashtab.Grouper)
	g.Reset(span.Hi - span.Lo)
	sh := hashShard{}
	cand := span.Lo
	eq := func(id int32) bool { return projEqualLin(lin, slots, cand, int(sh.rows[id])) }
	for i := span.Lo; i < span.Hi; i++ {
		cand = i
		h := projHashLin(lin, slots, i)
		id, fresh := g.Get(h, eq)
		if fresh {
			sh.rows = append(sh.rows, int32(i))
			sh.hashes = append(sh.hashes, h)
			sh.fsum = append(sh.fsum, 0)
			if gs != nil {
				sh.gsum = append(sh.gsum, 0)
			}
		}
		sh.fsum[id] += fs[i]
		if gs != nil {
			sh.gsum[id] += gs[i]
		}
	}
	grouperPool.Put(g)
	return sh
}

// mergeHashShards combines per-partition shards in partition order and
// returns Σ_groups (Σf)(Σg) — with bilinear false, Σ_groups (Σf)². Group
// totals accumulate and combine in first-seen order.
func mergeHashShards(shards []hashShard, lin [][]lineage.TupleID, slots []int, bilinear bool) float64 {
	var total int
	for _, sh := range shards {
		total += len(sh.rows)
	}
	g := grouperPool.Get().(*hashtab.Grouper)
	g.Reset(total)
	reps := make([]int32, 0, total)
	fTot := make([]float64, 0, total)
	var gTot []float64
	if bilinear {
		gTot = make([]float64, 0, total)
	}
	var cand int
	eq := func(id int32) bool { return projEqualLin(lin, slots, cand, int(reps[id])) }
	for _, sh := range shards {
		for k, rep := range sh.rows {
			cand = int(rep)
			id, fresh := g.Get(sh.hashes[k], eq)
			if fresh {
				reps = append(reps, rep)
				fTot = append(fTot, 0)
				if bilinear {
					gTot = append(gTot, 0)
				}
			}
			fTot[id] += sh.fsum[k]
			if bilinear {
				gTot[id] += sh.gsum[k]
			}
		}
	}
	grouperPool.Put(g)
	var acc float64
	for s, f := range fTot {
		if bilinear {
			acc += f * gTot[s]
		} else {
			acc += f * f
		}
	}
	return acc
}

// groupStats are the full-mask group statistics behind the variance
// diagnostics: the group count and Σt², Σt⁴ over the per-group totals t
// of f, each total summed in row order and the powers in first-seen order.
type groupStats struct {
	groups     int
	sum2, sum4 float64
}

// groupMoments computes the §6.3 Y_S moments — with gs non-nil the
// bilinear cross moments Y_S(f,g) (see BilinearMoments) — one mask at a
// time through the order-aware kernel (order.go): it observes each lineage
// slot's order once and lets that pick every mask's mode. With stats
// non-nil it also fills the full-mask group statistics.
func groupMoments(n int, lin [][]lineage.TupleID, fs, gs []float64, opts Options, stats *groupStats) []float64 {
	out := make([]float64, 1<<uint(n))
	totF := totalOf(fs, opts)
	if gs != nil {
		out[0] = totF * totalOf(gs, opts)
	} else {
		out[0] = totF * totF
	}
	spans := opts.spans(len(fs))
	track := newOrderTracker(n)
	track.observe(lin)
	for m := 1; m < len(out); m++ {
		slots := lineage.Set(m).Members()
		var top *groupStats
		if m == len(out)-1 {
			top = stats
		}
		out[m] = maskMoment(modeFor(slots, track.order), slots, spans, lin, fs, gs, opts.Workers, top)
	}
	return out
}

// maskMoment computes one mask's Σ_groups (Σf)(Σg) in the given mode:
// summing singletons, folding adjacent runs span by span, or falling back
// to partition-sharded hash grouping. Every mode the data supports yields
// the same groups in the same first-seen order with the same span-wise
// totals, so the floats do not depend on which one ran. stats, when
// non-nil, receives the mask's group statistics — from the same pass
// whenever the span-wise group totals are the row-order totals the
// statistics are defined over.
func maskMoment(mode maskMode, slots []int, spans []ops.Span, lin [][]lineage.TupleID, fs, gs []float64, workers int, stats *groupStats) float64 {
	if mode == hashed {
		shards := make([]hashShard, len(spans))
		//gus:ctx-ok pure CPU shard over a materialized sample, below cancellation granularity
		_ = ops.ForEachPart(workers, len(spans), func(p int) error {
			shards[p] = hashShardFor(spans[p], lin, slots, fs, gs)
			return nil
		})
		if stats != nil {
			var whole hashShard // one span over every row: row-order totals
			if len(spans) == 1 {
				whole = shards[0]
			} else {
				whole = hashShardFor(ops.Span{Lo: 0, Hi: len(fs)}, lin, slots, fs, nil)
			}
			stats.groups = len(whole.fsum)
			stats.sum2, stats.sum4 = addPowers(0, 0, whole.fsum)
		}
		return mergeHashShards(shards, lin, slots, gs != nil)
	}
	var ch chunk
	om := ordMask{mode: mode, slots: slots, bilinear: gs != nil, top: stats != nil}
	for _, sp := range spans {
		om.fold(ch.view(lin, fs, gs, sp.Lo, sp.Hi))
	}
	if stats != nil {
		st := &om
		if mode == runs && len(spans) > 1 {
			// A run crossing a span boundary is totalled span-wise above.
			st = &ordMask{mode: runs, slots: slots, top: true}
			st.fold(ch.view(lin, fs, nil, 0, len(fs)))
		}
		stats.groups, stats.sum2, stats.sum4 = st.stats(nil)
	}
	return om.exact()
}

// Incremental Theorem-1 accumulation for online aggregation. An Accum
// folds ordered sample chunks — one per partition wave — into persistent
// moment state: one maskAccum per lineage mask, the kernel the one-shot
// groupMoments (parallel.go) folds with too, fed the same PartitionSize
// spans. Two read modes:
//
//   - Moments() — a live snapshot including the not-yet-complete tail
//     span, with the Σ_groups(Σf)² sums maintained INCREMENTALLY (each
//     fold adjusts a running sum by the changed groups only), so a wave
//     costs O(Δ + groups touched), not O(rows so far);
//   - Finalize() — folds the tail and returns every moment summed in group
//     order, as groupMoments does, so an Accum fed the full sample in any
//     chunking yields BIT-IDENTICAL moments (and hence estimate and
//     variance) to one-shot Estimate/EstimateBatch with the same partition
//     size. TopDiagnostics reads the same group statistics the one-shot
//     diagnostics do.
//
// The incremental running sums trade last-bit float agreement for O(Δ)
// updates — fine for intermediate confidence intervals, which is why
// Finalize does not trust them.
//
// While the rows added so far keep a mask's groups singletons or adjacent
// runs it holds a handful of running sums and no table; the lineage order
// is observed on every Add and only ever degrades. When a chunk breaks a
// mask's order, the mask is rebuilt once in its new mode from the spans
// the accumulator retains for exactly that purpose, and continues — the
// floats are those of the hashed mode throughout.
//
// Span storage is drawn from package pools and goes back to them when the
// accumulator drops it (every mask hashed, Finalize, Release), so a stream
// reuses the spans of the streams before it instead of allocating and
// zeroing its sample afresh.
package estimator

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// Accum incrementally accumulates the §6.3 Y_S moments (and, in bilinear
// mode, the cross moments Y_S(f,g) behind covariance/AVG) over sample
// rows delivered in chunks. Chunk boundaries are arbitrary; internally
// rows regroup into fixed partitionSize spans matching Options'
// partition-sharded accumulators.
type Accum struct {
	n        int
	partSize int
	bilinear bool
	rows     int
	final    bool

	// spans holds sample rows one partitionSize span per element, copied
	// in as they arrive. The last element is the not-yet-complete tail
	// span; every one before it is complete and folded into the masks, and
	// is kept only while some mask is order-aware — the source that mask
	// is rebuilt from should a later chunk break its order. Span storage
	// comes from spanF/spanID and returns there once no mask can need it.
	spans   []chunk
	ordered int // masks not in hashed mode
	track   orderTracker

	// totF/totG accumulate completed-span partial sums in span order —
	// the running counterpart of totalOf.
	totF, totG float64

	masks []*maskAccum // index = lineage mask; slot 0 unused (Y_∅ = totals)
}

// NewAccum returns an accumulator for samples with n lineage slots.
// bilinear selects cross-moment mode (two value streams f and g);
// partitionSize ≤ 0 selects ops.DefaultPartitionSize and must match the
// Options.PartitionSize of any one-shot run it is compared against.
func NewAccum(n int, bilinear bool, partitionSize int) *Accum {
	if partitionSize <= 0 {
		partitionSize = ops.DefaultPartitionSize
	}
	a := &Accum{
		n:        n,
		partSize: partitionSize,
		bilinear: bilinear,
		spans:    make([]chunk, 1),
		track:    newOrderTracker(n),
		masks:    make([]*maskAccum, 1<<uint(n)),
	}
	for m := 1; m < len(a.masks); m++ {
		a.masks[m] = &maskAccum{}
		// Ratios are graded from their numerator and denominator (DiagnoseRatio).
		a.masks[m].reset(singletons, lineage.Set(m).Members(), bilinear, m == len(a.masks)-1 && !bilinear)
	}
	a.ordered = len(a.masks) - 1
	return a
}

// Rows reports how many sample rows have been added.
func (a *Accum) Rows() int { return a.rows }

// Add appends one chunk of sample rows: per-row aggregate values fs (and
// gs in bilinear mode; nil otherwise) with per-slot lineage columns lin.
// Rows must arrive in sample order.
func (a *Accum) Add(fs, gs []float64, lin [][]lineage.TupleID) error {
	if a.final {
		return fmt.Errorf("estimator: Add after Finalize")
	}
	if a.bilinear != (gs != nil) {
		return fmt.Errorf("estimator: bilinear accumulator mismatch (gs nil: %v)", gs == nil)
	}
	if gs != nil && len(gs) != len(fs) {
		return fmt.Errorf("estimator: %d g-values for %d f-values", len(gs), len(fs))
	}
	if len(lin) != a.n {
		return fmt.Errorf("estimator: %d lineage columns for %d slots", len(lin), a.n)
	}
	for s, l := range lin {
		if len(l) != len(fs) {
			return fmt.Errorf("estimator: lineage slot %d has %d rows, want %d", s, len(l), len(fs))
		}
	}
	// Settle every mask's mode for the new rows before any of them folds.
	a.track.observe(lin)
	a.remode()
	for off := 0; off < len(fs); {
		tail := a.tail()
		hi := off + a.partSize - tail.len()
		if hi > len(fs) {
			hi = len(fs)
		}
		if tail.lin == nil {
			a.allocSpan(tail)
		}
		tail.fs = append(tail.fs, fs[off:hi]...)
		if gs != nil {
			tail.gs = append(tail.gs, gs[off:hi]...)
		}
		for s := range lin {
			tail.lin[s] = append(tail.lin[s], lin[s][off:hi]...)
		}
		off = hi
		if tail.len() == a.partSize {
			a.foldTail()
		}
	}
	a.rows += len(fs)
	return nil
}

// Span storage pools. A default span (ops.DefaultPartitionSize rows) is
// well inside the pools' largest class; a span past it allocates and is
// dropped on release.
var (
	spanF  batch.SlicePool[float64]
	spanID batch.SlicePool[lineage.TupleID]
)

// allocSpan gives an empty span room for partSize rows, so filling it
// never regrows (regrowing one ever-longer buffer instead was a third of a
// progressive query's CPU). The buffers come from the span pools; their
// stale contents are never read, since a span is only appended to.
func (a *Accum) allocSpan(ch *chunk) {
	ch.fs = spanF.Get(a.partSize)[:0]
	if a.bilinear {
		ch.gs = spanF.Get(a.partSize)[:0]
	}
	ch.lin = make([][]lineage.TupleID, a.n)
	for s := range ch.lin {
		ch.lin[s] = spanID.Get(a.partSize)[:0]
	}
}

// releaseSpans returns the storage of spans to the span pools. No mask
// keeps a reference into a span — group keys and sums are copied out as
// spans fold — so the caller only has to stop reading them.
func releaseSpans(spans []chunk) {
	for i := range spans {
		ch := &spans[i]
		spanF.Put(ch.fs)
		spanF.Put(ch.gs)
		for _, l := range ch.lin {
			spanID.Put(l)
		}
		*ch = chunk{}
	}
}

// Release returns the accumulator's retained spans to the pools. Call it
// when a stream stops before Finalize (Finalize releases them itself); the
// accumulator must not be used afterwards.
func (a *Accum) Release() {
	releaseSpans(a.spans)
	a.spans = nil
}

// tail is the not-yet-complete span.
func (a *Accum) tail() *chunk { return &a.spans[len(a.spans)-1] }

// remode moves every mask whose order the latest chunk broke to the mode
// the rows added so far still support, replaying the folded spans into it.
func (a *Accum) remode() {
	for m := 1; m < len(a.masks); m++ {
		ms := a.masks[m]
		mode := modeFor(ms.slots, a.track.order)
		if mode <= ms.mode {
			continue
		}
		if mode == hashed {
			a.ordered--
		}
		ms.reset(mode, ms.slots, a.bilinear, ms.top)
		for i := range a.spans[:len(a.spans)-1] {
			ms.fold(&a.spans[i])
		}
	}
	if a.ordered == 0 {
		// Hashed masks keep their own group keys and never change mode
		// again: the folded spans have no reader left.
		releaseSpans(a.spans[:len(a.spans)-1])
		a.spans = a.spans[len(a.spans)-1:]
	}
}

// foldTail permanently folds the tail as one span and starts the next.
func (a *Accum) foldTail() {
	ch := a.tail()
	a.totF += tailSum(ch.fs)
	a.totG += tailSum(ch.gs)
	for m := 1; m < len(a.masks); m++ {
		a.masks[m].fold(ch)
	}
	if a.ordered > 0 {
		a.spans = append(a.spans, chunk{})
		return
	}
	ch.fs, ch.gs = ch.fs[:0], ch.gs[:0]
	for s := range ch.lin {
		ch.lin[s] = ch.lin[s][:0]
	}
}

// tailChunk is the tail span as a chunk (nil when empty).
func (a *Accum) tailChunk() *chunk {
	if a.tail().len() == 0 {
		return nil
	}
	return a.tail()
}

// Total returns the live Σf including the tail.
func (a *Accum) Total() float64 { return a.totF + tailSum(a.tail().fs) }

// TotalG returns the live Σg (bilinear mode).
func (a *Accum) TotalG() float64 { return a.totG + tailSum(a.tail().gs) }

func tailSum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// Moments returns a live snapshot of the Y_S moments including the tail,
// via the incremental running sums — O(Δ) per wave, last-bit float drift
// possible relative to a fresh recompute.
func (a *Accum) Moments() []float64 {
	out := make([]float64, 1<<uint(a.n))
	tf := a.Total()
	if a.bilinear {
		out[0] = tf * a.TotalG()
	} else {
		out[0] = tf * tf
	}
	ch := a.tailChunk()
	for m := 1; m < len(out); m++ {
		out[m] = a.masks[m].live(ch)
	}
	return out
}

// TopDiagnostics returns the full-mask group statistics (group count,
// Σt², Σt⁴) over everything added so far, including the unfolded tail:
// each group's total is its span-wise sum, the powers add in first-seen
// order. Persistent group state is untouched, so calling it never changes
// subsequent Moments/Finalize floats. While the full mask is order-aware
// this costs O(tail) — the sums over completed groups are kept running.
// A bilinear accumulator keeps no such sums; nothing grades from it.
func (a *Accum) TopDiagnostics() (groups int, sum2, sum4 float64) {
	return a.masks[len(a.masks)-1].stats(a.tailChunk())
}

// Finalize folds the remaining tail and returns the exact moments, summed
// in group order: bit-identical to groupMoments at any Workers over the
// whole sample. The accumulator is sealed afterwards, and its spans go back
// to the pools: no Add can follow, so no mask can need a rebuild.
func (a *Accum) Finalize() []float64 {
	if !a.final {
		if a.tail().len() > 0 {
			a.foldTail()
		}
		a.final = true
		releaseSpans(a.spans)
		a.spans = a.spans[:1]
	}
	out := make([]float64, 1<<uint(a.n))
	if a.bilinear {
		out[0] = a.totF * a.totG
	} else {
		out[0] = a.totF * a.totF
	}
	for m := 1; m < len(out); m++ {
		out[m] = a.masks[m].exact()
	}
	return out
}

// maskAccum is one mask's persistent group state — the moment kernel
// both the one-shot groupMoments and the streaming Accum fold with. In
// singletons and runs mode that is the embedded ordMask's running sums. In
// hashed mode it is an open-addressing grouper over projected-lineage
// hashes (full ID compare on collisions — never a materialized key
// string), the group key material in a flat slot-ordered ID array, the
// persistent group totals, and the running Σ_groups (Σf)(Σg) adjusted
// group-by-group on each merge. The span-local shard scratch is REUSED
// across folds, so a wave costs O(Δ + groups touched) with no per-wave
// table allocation.
type maskAccum struct {
	ordMask

	g      hashtab.Grouper
	keyIDs []lineage.TupleID // k IDs per group, first-seen order
	fTot   []float64
	gTot   []float64

	sh      shard     // span-local scratch, rebuilt in place per fold/live/stats
	scratch []float64 // stats' group totals with the tail's added
}

// reset empties the mask for (re)accumulation in the given mode, keeping
// its buffers.
func (ms *maskAccum) reset(mode maskMode, slots []int, bilinear, top bool) {
	*ms = maskAccum{
		ordMask: ordMask{mode: mode, slots: slots, bilinear: bilinear, top: top, key: ms.key[:0]},
		g:       ms.g,
		keyIDs:  ms.keyIDs[:0],
		fTot:    ms.fTot[:0],
		gTot:    ms.gTot[:0],
		sh:      ms.sh,
		scratch: ms.scratch,
	}
	if mode == hashed {
		ms.g.Reset(0)
	}
}

// keyEqualRow compares stored group id's key IDs against chunk row i.
func (ms *maskAccum) keyEqualRow(id int32, lin [][]lineage.TupleID, i int) bool {
	k := len(ms.slots)
	key := ms.keyIDs[int(id)*k : (int(id)+1)*k]
	for x, s := range ms.slots {
		if key[x] != lin[s][i] {
			return false
		}
	}
	return true
}

// shard is one span's groups for one hashed mask: each group's
// representative (its first span-local row), hash and value sums, in
// first-seen order. Keys are never materialized.
type shard struct {
	rows []int32
	hash []uint64
	f, g []float64 // g only for bilinear moments
}

// build groups ch's rows span-locally, reusing sh's storage: a group's
// sums are its values added in row order from zero.
func (sh *shard) build(ch *chunk, slots []int, bilinear bool) {
	gr := grouperPool.Get().(*hashtab.Grouper)
	gr.Reset(ch.len())
	sh.rows, sh.hash, sh.f, sh.g = sh.rows[:0], sh.hash[:0], sh.f[:0], sh.g[:0]
	cand := 0
	eq := func(id int32) bool { return projEqualLin(ch.lin, slots, cand, int(sh.rows[id])) }
	for i := 0; i < ch.len(); i++ {
		cand = i
		h := projHashLin(ch.lin, slots, i)
		id, fresh := gr.Get(h, eq)
		if fresh {
			sh.rows = append(sh.rows, int32(i))
			sh.hash = append(sh.hash, h)
			sh.f = append(sh.f, 0)
			if bilinear {
				sh.g = append(sh.g, 0)
			}
		}
		sh.f[id] += ch.fs[i]
		if bilinear {
			sh.g[id] += ch.gs[i]
		}
	}
	grouperPool.Put(gr)
}

func (ms *maskAccum) fold(ch *chunk) {
	if ms.mode != hashed {
		ms.ordMask.fold(ch)
		return
	}
	ms.sh.build(ch, ms.slots, ms.bilinear)
	ms.merge(&ms.sh, ch)
}

// merge adds span ch's shard into the group totals, in the shard's
// first-seen order: a group's total is its span partials added in span
// order.
func (ms *maskAccum) merge(sh *shard, ch *chunk) {
	rep := 0
	eq := func(id int32) bool { return ms.keyEqualRow(id, ch.lin, rep) }
	for j, r := range sh.rows {
		rep = int(r)
		s, fresh := ms.g.Get(sh.hash[j], eq)
		if fresh {
			for _, sl := range ms.slots {
				ms.keyIDs = append(ms.keyIDs, ch.lin[sl][rep])
			}
			ms.fTot = append(ms.fTot, 0)
			if ms.bilinear {
				ms.gTot = append(ms.gTot, 0)
			}
		}
		oldF := ms.fTot[s]
		newF := oldF + sh.f[j]
		ms.fTot[s] = newF
		if ms.bilinear {
			oldG := ms.gTot[s]
			newG := oldG + sh.g[j]
			ms.gTot[s] = newG
			ms.run += newF*newG - oldF*oldG
		} else {
			ms.run += newF*newF - oldF*oldF
		}
	}
}

// find looks the tail's shard group j up among the folded groups (-1 when
// new).
func (ms *maskAccum) find(ch *chunk, j int) int32 {
	rep := int(ms.sh.rows[j])
	return ms.g.Find(ms.sh.hash[j], func(id int32) bool { return ms.keyEqualRow(id, ch.lin, rep) })
}

// live returns the moment including the (unfolded) tail chunk, without
// mutating persistent group state (the shard scratch is fair game).
func (ms *maskAccum) live(ch *chunk) float64 {
	if ms.mode != hashed {
		return ms.ordMask.live(ch)
	}
	acc := ms.run
	if ch == nil {
		return acc
	}
	ms.sh.build(ch, ms.slots, ms.bilinear)
	for j := range ms.sh.rows {
		var oldF, oldG float64
		if s := ms.find(ch, j); s >= 0 {
			oldF = ms.fTot[s]
			if ms.bilinear {
				oldG = ms.gTot[s]
			}
		}
		newF := oldF + ms.sh.f[j]
		if ms.bilinear {
			newG := oldG + ms.sh.g[j]
			acc += newF*newG - oldF*oldG
		} else {
			acc += newF*newF - oldF*oldF
		}
	}
	return acc
}

// exact recomputes the moment from the group totals in slot (first-seen)
// order.
func (ms *maskAccum) exact() float64 {
	if ms.mode != hashed {
		return ms.ordMask.exact()
	}
	var acc float64
	for s, f := range ms.fTot {
		if ms.bilinear {
			acc += f * ms.gTot[s]
		} else {
			acc += f * f
		}
	}
	return acc
}

// stats is ordMask.stats for any mode. A hashed mask walks its group
// totals in first-seen order — the tail added to the groups it extends —
// then the tail's new groups. Only a top mask sums the powers.
func (ms *maskAccum) stats(ch *chunk) (groups int, sum2, sum4 float64) {
	if ms.mode != hashed {
		return ms.ordMask.stats(ch)
	}
	tot := ms.fTot
	if ch != nil {
		tot = append(ms.scratch[:0], ms.fTot...)
		ms.sh.build(ch, ms.slots, ms.bilinear)
		for j, f := range ms.sh.f {
			if s := ms.find(ch, j); s >= 0 {
				tot[s] += f
			} else {
				tot = append(tot, f)
			}
		}
		ms.scratch = tot
	}
	if ms.top {
		sum2, sum4 = addPowers(0, 0, tot)
	}
	return len(tot), sum2, sum4
}

// EstimateFromMoments assembles a Result from an accumulator snapshot
// under GUS g: the Theorem-1 estimate from the live Σf and the variance
// from the (live or finalized) Y_S moments. With g the query's top GUS,
// total = Accum.Total() and y = Accum.Finalize() over the full sample,
// the Result is bit-identical to Estimate/EstimateBatch without §7
// sub-sampling — both go through newResult; with prefix-adjusted
// parameters and live snapshots it prices a partially scanned sample.
func EstimateFromMoments(g *core.Params, total float64, y []float64, sampleRows int) (*Result, error) {
	return newResult(g, g, total, y, sampleRows, sampleRows)
}

// RatioFromMoments assembles a delta-method RatioResult from accumulator
// snapshots of the numerator (totN, yNN), denominator (totD, yDD) and
// their bilinear cross moments (yND) — the streaming counterpart of
// Ratio/RatioBatch, sharing their delta-method tail (ratioOf), so it is
// bit-identical to them at Finalize.
func RatioFromMoments(g *core.Params, totN, totD float64, yNN, yDD, yND []float64, sampleRows int) (*RatioResult, error) {
	nRes, err := EstimateFromMoments(g, totN, yNN, sampleRows)
	if err != nil {
		return nil, err
	}
	dRes, err := EstimateFromMoments(g, totD, yDD, sampleRows)
	if err != nil {
		return nil, err
	}
	return ratioOf(g, nRes, dRes, yND)
}

// Buffer recycling for owned batches and engine scratch. The fused
// kernel's gather outputs — one batch per query on the one-shot path, one
// per wave on the progressive path, where WaveExec releases each wave's
// batch as the next wave starts — are the engine's dominant steady-state
// allocation: a few dense numeric columns plus lineage IDs, identically
// shaped from query to query and from wave to wave.
// Routing those buffers through a pool turns that per-query churn into
// reuse, which matters because at synopsis-served latencies garbage
// collection is a measurable share of end-to-end query time.
//
// Only numeric ([]int64, []float64) and lineage ([]TupleID) buffers pool;
// string columns (and their dictionary-code sidecars) always allocate
// fresh, so a pooled buffer never pins string memory alive.
//
// Pooled buffers are NOT zeroed: every owned-batch producer (Alloc,
// AllocLike, AllocMerged, Gather) writes each of its rows positions
// exactly once before publishing the batch, so no consumer can observe a
// stale value.
package batch

import (
	"math/bits"
	"sync"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
)

// SlicePool recycles []T scratch in power-of-two capacity classes: class c
// holds buffers with 1<<c ≤ cap < 1<<(c+1). Get rounds the request up to
// its class, so a pooled buffer always fits the request that pops it (a
// hit never discards a buffer) and no request pins a buffer more than
// twice its size. One unclassed sync.Pool does neither: a small request
// pops — and, when too small, replaces — whatever buffer is on top, so
// every pooled buffer ratchets up to the largest size ever requested and
// the pool's footprint is bounded only by how often the GC clears it.
//
// Only span- and wave-sized buffers pool (maxPooledLen). A larger one is
// per-query state — a join's output column, a join table — and stays
// with the garbage collector: a pooled buffer is live heap, the collector
// lets the heap grow to twice its live size, and sync.Pool's per-P caches
// end up holding more than one copy, so recycling the few-MB buffers of a
// 100k-row join costs more resident memory than it saves in allocation
// (measured on the join_estimate benchmark workload: 82 MB resident with
// the bound, 129 MB without, 94 MB before pooling was size-classed).
//
// The zero value is ready to use. Contents of a Get result are undefined.
type SlicePool[T any] struct {
	classes [maxPooledClass + 1]sync.Pool // *[]T
}

// maxPooledLen is the largest request served from (and returned to) the
// pool: four default scan partitions' worth of rows, which covers per-span
// selection and hash scratch, a progressive wave's batch columns and value
// buffers, and an online accumulator's spans.
const (
	maxPooledClass = 14
	maxPooledLen   = 1 << maxPooledClass
)

// Get returns a slice of length n; when pooled, its capacity is n rounded
// up to a power of two.
func (p *SlicePool[T]) Get(n int) []T {
	if n > maxPooledLen {
		return make([]T, n)
	}
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	if s, ok := p.classes[c].Get().(*[]T); ok {
		return (*s)[:n]
	}
	return make([]T, n, 1<<uint(c))
}

// Put files s under ⌊log₂ cap⌋ for reuse; zero-capacity slices and those
// past the pooled sizes are dropped.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 || cap(s) > maxPooledLen {
		return
	}
	s = s[:0]
	p.classes[bits.Len(uint(cap(s)))-1].Put(&s)
}

var (
	poolF  SlicePool[float64]
	poolI  SlicePool[int64]
	poolID SlicePool[lineage.TupleID]
)

// allocVecPooled is AllocVec drawing numeric storage from the pools.
func allocVecPooled(kind relation.Kind, n int) expr.Vec {
	switch kind {
	case relation.KindInt:
		return expr.Vec{Kind: kind, I: poolI.Get(n)}
	case relation.KindFloat:
		return expr.Vec{Kind: kind, F: poolF.Get(n)}
	default:
		return expr.Vec{Kind: kind, S: make([]string, n)}
	}
}

// Release returns an owned batch's numeric column and lineage buffers to
// the package pools and poisons the batch so use-after-release fails fast
// (zero-length columns) instead of silently reading recycled memory.
// Batches that merely view other storage — relation snapshots
// (FromRelation), Narrow/Gather views into a parent — do not own their
// buffers and no-op, so calling Release is always safe on the batch a
// query executed, whatever path produced it.
//
// The caller must guarantee that no view derived from the batch (Narrow,
// column Slice, lineage slice) is referenced after the release.
func (b *Batch) Release() {
	if b == nil || !b.owned {
		return
	}
	b.owned = false
	for j := range b.Cols {
		c := &b.Cols[j]
		switch {
		case c.F != nil:
			poolF.Put(c.F)
		case c.I != nil:
			poolI.Put(c.I)
		}
		*c = expr.Vec{Kind: c.Kind}
	}
	for s := range b.Lin {
		poolID.Put(b.Lin[s])
		b.Lin[s] = nil
	}
	b.rows = 0
}

// Package batch is poolcontract testdata: the owned-batch type whose
// Release poisons the value.
package batch

// Batch is a columnar block with pooled buffers.
type Batch struct {
	Cols  [][]float64
	owned bool
}

// New returns an owned batch.
func New(cols int) *Batch {
	return &Batch{Cols: make([][]float64, cols), owned: true}
}

// Len reports the row count.
func (b *Batch) Len() int {
	if b == nil || len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// Release poisons the batch and recycles its buffers.
func (b *Batch) Release() {
	if b == nil || !b.owned {
		return
	}
	b.owned = false
	for i := range b.Cols {
		b.Cols[i] = nil
	}
}

// SlicePool stands in for the size-classed scratch pool.
type SlicePool[T any] struct{ free [][]T }

// Get pops a buffer of length n.
func (p *SlicePool[T]) Get(n int) []T { return make([]T, n) }

// Put returns a buffer.
func (p *SlicePool[T]) Put(s []T) { p.free = append(p.free, s) }

// Package engine is poolcontract testdata: use-after-release paths and
// scratch buffers that never return to their pool.
package engine

import (
	"sync"

	"pool/batch"
)

var poolF = sync.Pool{New: func() any { return make([]float64, 0, 1024) }}

// getF draws a scratch buffer from the pool.
func getF(n int) []float64 {
	buf := poolF.Get().([]float64)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// putF returns a scratch buffer to the pool.
func putF(buf []float64) {
	poolF.Put(buf[:0])
}

// UseAfterRelease touches the batch after poisoning it.
func UseAfterRelease(b *batch.Batch) int {
	b.Release()
	return b.Len() // want `use of b after Release`
}

// DoubleRelease is a use too.
func DoubleRelease(b *batch.Batch) {
	b.Release()
	b.Release() // want `use of b after Release`
}

// ReleaseLast is the correct shape.
func ReleaseLast(b *batch.Batch) int {
	n := b.Len()
	b.Release()
	return n
}

// DeferRelease runs at function exit: always safe.
func DeferRelease(b *batch.Batch) int {
	defer b.Release()
	return b.Len()
}

// BranchRelease releases on a terminating branch: the fall-through path
// still owns the batch.
func BranchRelease(b *batch.Batch, fail bool) int {
	if fail {
		b.Release()
		return 0
	}
	return b.Len()
}

// BranchLeak releases on a branch that falls through, poisoning every
// later statement.
func BranchLeak(b *batch.Batch, done bool) int {
	if done {
		b.Release()
	}
	return b.Len() // want `use of b after Release`
}

// Balanced returns its scratch buffer to the pool.
func Balanced(n int) float64 {
	buf := getF(n)
	var sum float64
	for i := range buf {
		sum += buf[i]
	}
	putF(buf)
	return sum
}

// Leak never returns the buffer: the pool degrades to allocation.
func Leak(n int) float64 {
	buf := getF(n) // want `pooled buffer buf from getF never reaches`
	var sum float64
	for i := range buf {
		sum += buf[i]
	}
	return sum
}

// Transfer hands the buffer to the caller: ownership leaves with it.
func Transfer(n int) []float64 {
	buf := getF(n)
	return buf
}

// Captured hands the buffer to a closure.
func Captured(n int) func() {
	buf := getF(n)
	return func() { putF(buf) }
}

// Annotated documents a deliberate hand-off the analyzer cannot see.
func Annotated(n int) {
	//gus:pool-ok fixture: buffer intentionally dropped
	buf := getF(n)
	_ = buf
}

var poolI32 batch.SlicePool[int32]

// getI32 draws from the size-classed pool: a getter like getF.
func getI32(n int) []int32 { return poolI32.Get(n) }

func putI32(s []int32) { poolI32.Put(s) }

// ClassedBalanced returns its size-classed scratch.
func ClassedBalanced(n int) int {
	sel := getI32(n)[:0]
	sel = append(sel, 1)
	putI32(sel)
	return n
}

// ClassedLeak drops a size-classed buffer.
func ClassedLeak(n int) int {
	sel := getI32(n)[:0] // want `pooled buffer sel from getI32 never reaches`
	for i := 0; i < cap(sel); i++ {
		n += i
	}
	return n
}

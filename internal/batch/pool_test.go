package batch

import "testing"

// TestSlicePoolClasses pins the pool's contract: a buffer always fits the
// request that pops it, never exceeds twice the request, is filed by the
// capacity it actually has, and is pooled only up to the span-sized bound.
func TestSlicePoolClasses(t *testing.T) {
	var p SlicePool[int32]
	for _, n := range []int{0, 1, 2, 3, 4, 5, 1000, 4096, 4097, maxPooledLen} {
		s := p.Get(n)
		if len(s) != n || cap(s) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(s), cap(s))
		}
		if n > 1 && cap(s) >= 2*n {
			t.Fatalf("Get(%d): cap %d pins at least twice the request", n, cap(s))
		}
		p.Put(s)
	}
	big := p.Get(maxPooledLen + 1)
	if len(big) != maxPooledLen+1 || cap(big) != len(big) {
		t.Fatalf("past the pooled sizes Get must allocate exactly: len %d cap %d", len(big), cap(big))
	}
	p.Put(big)          // dropped
	p.Put(nil)          // dropped
	p.Put([]int32{}[:]) // zero capacity: dropped

	// A buffer that grew by append files under the capacity it has now, so
	// a request of its new class (here 512) can pop it and a request of
	// its old class is never handed an oversized buffer. (sync.Pool may
	// drop any Put — under the race detector it does so at random — so
	// only what a hit returns is asserted, never that a hit happens.)
	grown := append(p.Get(3)[:0], make([]int32, 600)...)
	p.Put(grown)
	for i := 0; i < 8; i++ {
		if s := p.Get(3); cap(s) >= 8 {
			t.Fatalf("Get(3) popped a buffer of cap %d", cap(s))
		}
		if s := p.Get(512); cap(s) < 512 {
			t.Fatalf("Get(512) popped a buffer of cap %d", cap(s))
		}
	}
}

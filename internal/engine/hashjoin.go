// Open-addressing hash infrastructure for the engine's keyed operators.
//
// joinTable is a uint64 → ascending build-row chain multimap replacing the
// map[string][]int32 (with a materialized string key per row) both join
// paths used to build. Layout is fully flat: an open-addressing array of
// packed uint64 slots (linear probing, power-of-two capacity), each holding
// a 32-bit tag of the key hash and the FIRST build row of a key, plus a
// next array threading the remaining rows of each key in ascending row
// order — no per-key allocation anywhere. A probe reads one slot per
// step: the tag rejects almost every colliding key, and a tag hit falls
// back to a caller-supplied full-key equality (typed column compare), so
// hash values never decide matches.
//
// The parallel build is radix-partitioned: rows scatter into radix buckets
// by their hash's top bits (a counting sort over fixed partitions, so the
// scatter is deterministic and keeps rows in ascending order within each
// bucket), and each bucket owns a disjoint region of the slot array sized
// to its own row count — workers insert into disjoint memory, skew-proof
// and without locks. Because each key lives entirely in one bucket and
// buckets insert rows in ascending order, every key's chain is ascending
// regardless of the radix count or worker count — exactly the order the
// merged partial maps used to produce, so join outputs are bit-identical.
//
// Scratch (hash arrays, slot arrays, match buffers) comes from pools,
// so steady-state joins — and wave-at-a-time execution generally — reuse
// buffers instead of re-allocating them.
package engine

import (
	"math/bits"
	"sync"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// scratch pools for the engine's keyed operators and fused kernels —
// size-classed, so a request for a small buffer never pops (or ratchets
// up) a large one.
var (
	poolI32 batch.SlicePool[int32]
	poolU64 batch.SlicePool[uint64]
)

// getI32 returns a pooled []int32 with length n (contents undefined).
// These wrappers are the getters and putters gusvet's poolcontract
// analyzer tracks: whatever one hands out must reach the other.
func getI32(n int) []int32 { return poolI32.Get(n) }

func putI32(s []int32) { poolI32.Put(s) }

// getU64 returns a pooled []uint64 with length n (contents undefined).
func getU64(n int) []uint64 { return poolU64.Get(n) }

func putU64(s []uint64) { poolU64.Put(s) }

// joinTable is the built multimap: probe with head(), walk with next().
type joinTable struct {
	slots []uint64 // flat slot storage, all radix regions; slotTag(h) | head row+1, 0 empty
	next  []int32  // next[i] = next build row with i's key, -1 at chain end

	radixBits uint
	regionOff []int32 // region start per radix (len R+1), in slots
	regionCap []int32 // power-of-two region capacity per radix
}

// release returns the table's scratch to the pools.
func (t *joinTable) release() {
	putU64(t.slots)
	putI32(t.next)
	putI32(t.regionOff)
	putI32(t.regionCap)
}

// region locates the radix region for hash h.
func (t *joinTable) region(h uint64) (base int32, mask uint64) {
	r := h >> (64 - t.radixBits) // radixBits 0 ⇒ shift 64 ⇒ radix 0
	return t.regionOff[r], uint64(t.regionCap[r] - 1)
}

// rowMask selects a slot's head row+1; the bits above it hold the tag.
const rowMask = 1<<32 - 1

// slotTag is the part of key hash h a slot keeps, in the slot's top 32
// bits: hash bits 24–55, which neither the radix (the top ≤ 8 bits) nor
// the slot index (the low log₂ capacity bits, fewer than 24 for any region
// under 16 M slots) already fixes, so keys that meet at one slot almost
// always differ in it.
func slotTag(h uint64) uint64 { return h << 8 &^ rowMask }

// homes fills vs[k] with the contents of hash hs[k]'s home slot. The loads
// are independent of each other, so the CPU keeps many of the table's
// cache misses in flight at once; a probe loop that loaded each slot just
// before using it would wait for them one row at a time.
func (t *joinTable) homes(hs, vs []uint64) {
	for k, h := range hs {
		base, mask := t.region(h)
		vs[k] = t.slots[base+int32(h&mask)]
	}
}

// head returns the first build row whose key matches (h, eq), or -1, given
// v, the contents of h's home slot (homes): linear probing from the home
// slot to the first tag hit whose key matches, or to an empty slot. eq(row)
// is consulted only on a tag hit — the collision fallback to a full-key
// compare.
func (t *joinTable) head(h, v uint64, eq func(row int32) bool) int32 {
	base, mask := t.region(h)
	tag := slotTag(h)
	for s := h & mask; v != 0; v = t.slots[base+int32(s)] {
		if v&^rowMask == tag && eq(int32(v&rowMask)-1) {
			return int32(v&rowMask) - 1
		}
		s = (s + 1) & mask
	}
	return -1
}

// chainNext returns the build row after i in its key's chain, or -1.
func (t *joinTable) chainNext(i int32) int32 { return t.next[i] }

// regionCapFor sizes a radix region: power of two ≥ 2×count (≤50% load),
// never below 2 so probing always terminates at an empty slot.
func regionCapFor(count int32) int32 {
	if count <= 0 {
		return 2
	}
	return int32(1) << bits.Len32(uint32(2*count-1))
}

// buildJoinTable builds the multimap over n build rows from their
// precomputed key hashes. eq(i, j) must report full key equality of build
// rows i and j; it may be called from multiple goroutines and must not
// write shared state. The chains it produces hold ascending row indices
// for every key, at any worker or radix count.
func (e *Engine) buildJoinTable(n int, hashes []uint64, eq func(i, j int32) bool) (*joinTable, error) {
	radixBits := uint(0)
	if e.workers > 1 && n > e.cutoff {
		// Enough buckets to spread the workers even with moderate skew,
		// bounded so tiny builds don't drown in region bookkeeping.
		radixBits = uint(bits.Len(uint(4*e.workers - 1)))
		if radixBits > 8 {
			radixBits = 8
		}
	}
	R := 1 << radixBits

	t := &joinTable{
		next:      getI32(n),
		radixBits: radixBits,
		regionOff: getI32(R + 1),
		regionCap: getI32(R),
	}

	// Count rows per (partition, radix); partitions only to parallelize the
	// counting — the scatter below is ordered (partition, row), so bucket
	// contents are in ascending global row order.
	spans := e.partitionsFor(n)
	counts := getI32(len(spans) * R)
	for i := range counts {
		counts[i] = 0
	}
	err := e.forEach(len(spans), n, func(p int) error {
		c := counts[p*R : (p+1)*R]
		for _, h := range hashes[spans[p].Lo:spans[p].Hi] {
			c[h>>(64-radixBits)]++
		}
		return nil
	})
	if err != nil {
		t.release()
		putI32(counts)
		return nil, err
	}

	// Region offsets (slot storage) and scatter offsets (row storage).
	radixRows := getI32(R) // rows per radix
	for r := 0; r < R; r++ {
		radixRows[r] = 0
		for p := range spans {
			radixRows[r] += counts[p*R+r]
		}
	}
	var slotTotal int32
	for r := 0; r < R; r++ {
		t.regionOff[r] = slotTotal
		t.regionCap[r] = regionCapFor(radixRows[r])
		slotTotal += t.regionCap[r]
	}
	t.regionOff[R] = slotTotal
	t.slots = getU64(int(slotTotal)) // each radix clears its own region below

	// rowStart[r] = first index of radix r's rows in byRadix; spanOff walks
	// (radix, partition) in order so the scatter is a stable counting sort.
	rowStart := getI32(R + 1)
	var acc int32
	for r := 0; r < R; r++ {
		rowStart[r] = acc
		acc += radixRows[r]
	}
	rowStart[R] = acc
	spanOff := getI32(len(spans) * R)
	for r := 0; r < R; r++ {
		off := rowStart[r]
		for p := range spans {
			spanOff[p*R+r] = off
			off += counts[p*R+r]
		}
	}
	byRadix := getI32(n)
	err = e.forEach(len(spans), n, func(p int) error {
		off := spanOff[p*R : (p+1)*R]
		cur := getI32(R)
		copy(cur, off)
		for i := spans[p].Lo; i < spans[p].Hi; i++ {
			r := hashes[i] >> (64 - radixBits)
			byRadix[cur[r]] = int32(i)
			cur[r]++
		}
		putI32(cur)
		return nil
	})
	putI32(counts)
	putI32(spanOff)
	if err != nil {
		putI32(radixRows)
		putI32(rowStart)
		putI32(byRadix)
		t.release()
		return nil, err
	}

	// Per-radix insertion: each radix owns a disjoint slot region and the
	// next entries of its own rows, so workers never share memory. Rows go
	// in DESCENDING order and each becomes its key's new head, so every
	// chain read from its head is ascending without a tail pointer.
	err = e.forEach(R, n, func(r int) error {
		base := t.regionOff[r]
		mask := uint64(t.regionCap[r] - 1)
		clear(t.slots[base : base+t.regionCap[r]])
		rows := byRadix[rowStart[r]:rowStart[r+1]]
		for k := len(rows) - 1; k >= 0; k-- {
			i := rows[k]
			h := hashes[i]
			tag := slotTag(h)
			t.next[i] = -1
			for s := h & mask; ; s = (s + 1) & mask {
				v := t.slots[base+int32(s)]
				if v == 0 {
					t.slots[base+int32(s)] = tag | uint64(i+1)
					break
				}
				if head := int32(v&rowMask) - 1; v&^rowMask == tag && eq(head, i) {
					t.next[i] = head
					t.slots[base+int32(s)] = tag | uint64(i+1)
					break
				}
			}
		}
		return nil
	})
	putI32(radixRows)
	putI32(rowStart)
	putI32(byRadix)
	if err != nil {
		t.release()
		return nil, err
	}
	return t, nil
}

// partitionsFor is ops.Partitions at the engine's configured morsel size.
func (e *Engine) partitionsFor(n int) []ops.Span { return ops.Partitions(n, e.partSize) }

var poolGrouper = sync.Pool{New: func() any { return &hashtab.Grouper{} }}

// getGrouper returns a pooled, reset Grouper sized for about hint keys.
func getGrouper(hint int) *hashtab.Grouper {
	g := poolGrouper.Get().(*hashtab.Grouper)
	g.Reset(hint)
	return g
}

func putGrouper(g *hashtab.Grouper) { poolGrouper.Put(g) }

// linSeed decorrelates lineage-key hashes from single-column join hashes.
const linSeed = 0x4cf5ad432745937f

// linHashAt returns the canonical hash of row i's full lineage: per-slot
// ID hashes combined in ascending slot order — the hash counterpart of the
// AppendID key encoding, with hashtab.Combine preventing the boundary
// aliasing a flat concatenation would allow.
func linHashAt(lin [][]lineage.TupleID, i int) uint64 {
	h := uint64(linSeed)
	for s := range lin {
		h = hashtab.Combine(h, hashtab.Mix(uint64(lin[s][i])))
	}
	return h
}

// linEqualAt reports whether row i of a and row j of b have identical
// lineage (same slot count by construction).
func linEqualAt(a [][]lineage.TupleID, i int, b [][]lineage.TupleID, j int) bool {
	for s := range a {
		if a[s][i] != b[s][j] {
			return false
		}
	}
	return true
}

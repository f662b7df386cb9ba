package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Keying names what a Rule hashes to decide a row.
type Keying int

const (
	// ByRow keeps input row i iff its uniform U_i < P: Bernoulli, and the
	// fresh Residual at P = p/q. U_i is 53 binary digits read 64 rows at a
	// time: digit d of every row in word w = [64w, 64w+64) is one bit of
	// Hash64(Sub, 64w+d), so the rows of a word are compared with P
	// together (AppendRows).
	ByRow Keying = iota
	// ByBlock keeps input row i iff HashID(Sub, i/Block) < P and rewrites
	// lineage slot Slot to the row's 1-based block ID: SYSTEM sampling.
	ByBlock
	// ByLineage keeps a row iff HashID(Seeds[j], id_j) < Probs[j] for the
	// row's tuple ID id_j in every lineage slot Slots[j]: LineageHash, and
	// the nested Residual as its one-relation case.
	ByLineage
	// ByRank keeps the K input rows of smallest rank HashID(Sub, i), ties
	// to the lower index, in input order: WOR. Ranks are i.i.d. uniform, so
	// the kept rows are a uniform K-subset.
	ByRank
)

// Rule is a sampling method's keep rule bound to one input: every decision
// is a pure function of the sub-seed and the input row index, or of the
// row's lineage — never of other rows' decisions, of the partitioning or
// of the worker count. Method.Apply and the engine's kernels both decide
// by it, so the reference executor replays the engine's sample exactly.
type Rule struct {
	Keying Keying
	// Sub is the sub-seed row-, block- and rank-keyed decisions hash with.
	Sub uint64
	// P is the keep probability of ByRow and ByBlock.
	P float64
	// Block is the ByBlock block size and Slot the lineage slot it
	// rewrites.
	Block, Slot int
	// Slots, Seeds and Probs are the ByLineage slots, their hash seeds
	// and thresholds.
	Slots []int
	Seeds []uint64
	Probs []float64
	// K is the ByRank sample size.
	K int
}

// RuleOf binds m's keep rule to an input with lineage schema lsch under
// sub-seed sub. Methods keyed by row position (Bernoulli, fresh Residual,
// SYSTEM, WOR) need an input carrying one relation's lineage: over a join,
// rows sharing a tuple would be decided independently, and Figure 1's
// b_rel = a would not hold.
func RuleOf(m Method, lsch *lineage.Schema, sub uint64) (*Rule, error) {
	switch t := m.(type) {
	case *Bernoulli:
		return rowRule(m, lsch, t.Rel, &Rule{Keying: ByRow, Sub: sub, P: t.P})
	case *Residual:
		if !t.Nested {
			return rowRule(m, lsch, t.Rel, &Rule{Keying: ByRow, Sub: sub, P: t.P / t.Q})
		}
		slot, err := slotIn(lsch, t.Rel)
		if err != nil {
			return nil, err
		}
		return &Rule{Keying: ByLineage, Slots: []int{slot}, Seeds: []uint64{t.Hash}, Probs: []float64{t.P}}, nil
	case *Block:
		return rowRule(m, lsch, t.Rel, &Rule{Keying: ByBlock, Sub: sub, P: t.P, Block: t.BlockSize})
	case *WOR:
		return rowRule(m, lsch, t.Rel, &Rule{Keying: ByRank, Sub: sub, K: t.K})
	case *LineageHash:
		r := &Rule{Keying: ByLineage}
		for _, rel := range t.rels {
			slot, err := slotIn(lsch, rel)
			if err != nil {
				return nil, err
			}
			r.Slots = append(r.Slots, slot)
			r.Seeds = append(r.Seeds, RelSeed(t.Seed, rel))
			r.Probs = append(r.Probs, t.probs[rel])
		}
		return r, nil
	default:
		return nil, fmt.Errorf("sampling: unsupported sampling method %T", m)
	}
}

// slotIn finds the lineage slot of rel within lsch, or errors.
func slotIn(lsch *lineage.Schema, rel string) (int, error) {
	i, ok := lsch.Index(rel)
	if !ok {
		return 0, fmt.Errorf("sampling: input lineage %v does not include %q", lsch.Names(), rel)
	}
	return i, nil
}

// rowRule completes r, a rule keyed by row position, after checking that
// the input carries rel's lineage alone.
func rowRule(m Method, lsch *lineage.Schema, rel string, r *Rule) (*Rule, error) {
	slot, err := slotIn(lsch, rel)
	if err != nil {
		return nil, err
	}
	if lsch.Len() != 1 {
		return nil, fmt.Errorf("sampling: %s must be applied to one relation's rows, not to lineage %v", m.Name(), lsch.Names())
	}
	r.Slot = slot
	return r, nil
}

// threshold is the 53-bit integer form of keep probability p: a uniform
// U = u/2⁵³ is below p iff u < ⌈p·2⁵³⌉, so HashID(seed, id) < p iff
// Hash64(seed, id)>>11 < threshold(p). p ≤ 0 and NaN give 0 (keep nothing),
// p ≥ 1 gives 2⁵³ (keep everything).
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// AppendRows appends to dst the input rows of [lo, hi) that a ByRow or
// ByBlock rule keeps, in increasing order. Every decision depends on the
// row's absolute index alone, so any split of the input into spans keeps
// the same rows.
//
// ByRow compares 64 rows' uniforms with the threshold t at once, most
// significant digit first: where t's digit is 1 a row whose digit is 0 is
// kept, where it is 0 a row whose digit is 1 is dropped, and the rest stay
// undecided. The loop ends when no row of the word is undecided or t has no
// 1 digit left (the undecided rows are then ≥ t). That is ~8 words per 64
// rows at a generic P and 2 at P = 25 %. Rows outside the span are masked
// out of a word's undecided set; they only change when the loop ends.
//
// ByBlock decides once per block and appends the block's rows in the span.
func (r *Rule) AppendRows(lo, hi int, dst []int32) []int32 {
	if hi <= lo {
		return dst
	}
	k := len(dst)
	dst = slices.Grow(dst, hi-lo)[:k+hi-lo]
	t := threshold(r.P)
	switch {
	case t == 0:
	case t == 1<<53:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k++
		}
	case r.Keying == ByBlock:
		for b := lo / r.Block; b*r.Block < hi; b++ {
			if stats.Hash64(r.Sub, uint64(b))>>11 >= t {
				continue
			}
			for i := max(lo, b*r.Block); i < min(hi, (b+1)*r.Block); i++ {
				dst[k] = int32(i)
				k++
			}
		}
	default:
		last := 52 - bits.TrailingZeros64(t) // t's last 1 digit, 0 = 2⁵²
		for base := lo &^ 63; base < hi; base += 64 {
			live := ^uint64(0)
			if base < lo {
				live <<= uint(lo - base)
			}
			if hi-base < 64 {
				live &= 1<<uint(hi-base) - 1
			}
			var keep uint64
			for d := 0; d <= last && live != 0; d++ {
				x := stats.Hash64(r.Sub, uint64(base+d))
				if t>>(52-d)&1 != 0 {
					keep |= live &^ x
					live &= x
				} else {
					live &^= x
				}
			}
			for ; keep != 0; keep &= keep - 1 {
				dst[k] = int32(base + bits.TrailingZeros64(keep))
				k++
			}
		}
	}
	return dst[:k]
}

// BlockID is the lineage ID ByBlock gives input row i.
func (r *Rule) BlockID(i int) lineage.TupleID { return lineage.TupleID(i/r.Block + 1) }

// KeepsID is the ByLineage decision of slot Slots[j] for tuple ID id; a row
// is kept iff every slot keeps it.
func (r *Rule) KeepsID(j int, id lineage.TupleID) bool {
	return stats.HashID(r.Seeds[j], uint64(id)) < r.Probs[j]
}

// Cand is a row competing for a ByRank sample: its rank and input index.
type Cand struct {
	Rank  float64
	Index int
}

// BottomK orders c by (rank, index) and returns its first k entries.
func BottomK(c []Cand, k int) []Cand {
	sort.Slice(c, func(a, b int) bool {
		if c[a].Rank != c[b].Rank {
			return c[a].Rank < c[b].Rank
		}
		return c[a].Index < c[b].Index
	})
	if len(c) > k {
		c = c[:k]
	}
	return c
}

// Candidates returns the ByRank winners among input rows [lo, hi). The
// winners of a whole input are the BottomK of its parts' winners, so the
// rows may be split at any boundaries.
func (r *Rule) Candidates(lo, hi int) []Cand {
	c := make([]Cand, 0, hi-lo)
	for i := lo; i < hi; i++ {
		c = append(c, Cand{Rank: stats.HashID(r.Sub, uint64(i)), Index: i})
	}
	return BottomK(c, r.K)
}

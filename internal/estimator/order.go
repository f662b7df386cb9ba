// Order-aware lineage grouping: how the moment kernel (maskAccum, stream.go)
// groups a mask whose slots the sample keeps in order, for the one-shot
// groupMoments (parallel.go) and the streaming Accum alike. See the
// package comment for the order property and why the floats match the
// hashed mode bit for bit.
package estimator

import (
	"slices"

	"github.com/sampling-algebra/gus/internal/lineage"
)

// slotOrder is the order observed so far on one lineage slot's ID column.
type slotOrder uint8

const (
	// strictlyIncreasing: every ID exceeds its predecessor, so IDs are
	// distinct and any mask containing the slot groups into singletons.
	strictlyIncreasing slotOrder = iota
	// nonDecreasing: equal IDs are adjacent.
	nonDecreasing
	// unordered: an ID smaller than its predecessor was seen.
	unordered
)

// orderTracker observes the lineage columns of a sample, chunk by chunk in
// sample order. A slot's order only ever degrades, so what it reports holds
// for every row observed so far.
type orderTracker struct {
	order []slotOrder
	last  []lineage.TupleID
	seen  bool
}

func newOrderTracker(n int) orderTracker {
	return orderTracker{order: make([]slotOrder, n), last: make([]lineage.TupleID, n)}
}

// observe scans the next chunk's columns: one compare per row and slot,
// skipped for slots already unordered.
func (t *orderTracker) observe(lin [][]lineage.TupleID) {
	if len(lin) == 0 || len(lin[0]) == 0 {
		return
	}
	for s, col := range lin {
		o, prev, rest := t.order[s], col[0], col[1:]
		if t.seen {
			prev, rest = t.last[s], col
		}
		t.last[s] = col[len(col)-1]
		if o == unordered {
			continue
		}
		for _, id := range rest {
			if id <= prev {
				if id < prev {
					o = unordered
					break
				}
				o = nonDecreasing
			}
			prev = id
		}
		t.order[s] = o
	}
	t.seen = true
}

// maskMode is how one lineage mask's groups are found.
type maskMode uint8

const (
	// singletons: a member slot is strictly increasing, so every row is
	// its own group and Y_S = Σ f·g in row order — no table, no compares.
	singletons maskMode = iota
	// runs: every member slot is non-decreasing, so the projected key is
	// too and each group is one run of adjacent rows.
	runs
	// hashed: neither holds; group on an open-addressing table.
	hashed
)

func modeFor(slots []int, order []slotOrder) maskMode {
	m := runs
	for _, s := range slots {
		switch order[s] {
		case strictlyIncreasing:
			return singletons
		case unordered:
			m = hashed
		}
	}
	return m
}

// chunk is one span's worth of rows in columnar form.
type chunk struct {
	fs, gs []float64
	lin    [][]lineage.TupleID
}

func (c *chunk) len() int { return len(c.fs) }

// view points c at rows [lo, hi) of the given columns, reusing c.lin.
func (c *chunk) view(lin [][]lineage.TupleID, fs, gs []float64, lo, hi int) *chunk {
	c.fs = fs[lo:hi]
	c.gs = nil
	if gs != nil {
		c.gs = gs[lo:hi]
	}
	c.lin = c.lin[:0]
	for _, col := range lin {
		c.lin = append(c.lin, col[lo:hi])
	}
	return c
}

// ordMask accumulates one mask's group moments over spans folded in sample
// order while the mask is in singletons or runs mode. Groups then complete
// in first-seen order, so everything the hashed mode keeps per group
// collapses to running sums over the completed ("closed") groups plus the
// one group the next span may still extend.
//
// Float contract, per fold of one span, matching maskAccum's hashed mode:
// a group's span partial is the row-order sum of its values from zero; its
// total is the sum of its span partials in span order; run advances by
// (newF·newG − oldF·oldG) per touched group in first-seen order; closed,
// sum2 and sum4 add each group's final total in first-seen order.
type ordMask struct {
	mode     maskMode
	slots    []int
	bilinear bool
	top      bool // full mask: also keep the diagnostics sums

	groups     int
	run        float64 // live moment, advanced incrementally like the hashed mode's
	closed     float64 // Σ f·g over closed groups: exact()'s prefix
	sum2, sum4 float64 // Σ t², Σ t⁴ over closed groups (top only)

	open bool // runs mode: the last group, not yet closed
	key  []lineage.TupleID
	f, g float64
}

func (m *ordMask) product(f, g float64) float64 {
	if m.bilinear {
		return f * g
	}
	return f * f
}

// paired returns the values multiplied with ch.fs row by row: gs, or fs
// itself for plain moments.
func (m *ordMask) paired(ch *chunk) []float64 {
	if m.bilinear {
		return ch.gs
	}
	return ch.fs
}

// fold permanently accumulates one span.
func (m *ordMask) fold(ch *chunk) {
	if m.mode == singletons {
		// Every group closes as it opens: closed and run are one sum, and
		// a top mask's statistics add each row's value in the same pass.
		gs := m.paired(ch)
		run, sum2, sum4 := m.run, m.sum2, m.sum4
		if m.top {
			for i, f := range ch.fs {
				run += f * gs[i]
				sum2, sum4 = addPower(sum2, sum4, f)
			}
		} else {
			for i, f := range ch.fs {
				run += f * gs[i]
			}
		}
		m.run, m.closed, m.sum2, m.sum4 = run, run, sum2, sum4
		m.groups += ch.len()
		return
	}
	for i := 0; i < ch.len(); {
		j, pf, pg := m.nextRun(ch, i)
		var oldF, oldG float64
		if i == 0 && m.extends(ch) {
			oldF, oldG = m.f, m.g
		} else {
			m.close()
			m.open = true
			m.key = m.key[:0]
			for _, s := range m.slots {
				m.key = append(m.key, ch.lin[s][i])
			}
			m.groups++
		}
		m.f, m.g = oldF+pf, oldG+pg
		m.run += m.product(m.f, m.g) - m.product(oldF, oldG)
		i = j
	}
}

// addPower adds one group total's t² and t⁴ to the diagnostics sums.
func addPower(sum2, sum4, t float64) (float64, float64) {
	t2 := t * t
	return sum2 + t2, sum4 + t2*t2
}

// addPowers is addPower over group totals ts, in order.
func addPowers(sum2, sum4 float64, ts []float64) (float64, float64) {
	for _, t := range ts {
		sum2, sum4 = addPower(sum2, sum4, t)
	}
	return sum2, sum4
}

// nextRun returns the end of the run of equal projected keys starting at
// row i and the run's value sums.
func (m *ordMask) nextRun(ch *chunk, i int) (j int, pf, pg float64) {
	j = i + 1
	for j < ch.len() && projEqualLin(ch.lin, m.slots, i, j) {
		j++
	}
	for _, v := range ch.fs[i:j] {
		pf += v
	}
	if m.bilinear {
		for _, v := range ch.gs[i:j] {
			pg += v
		}
	}
	return j, pf, pg
}

// extends reports whether ch's first row belongs to the open group.
func (m *ordMask) extends(ch *chunk) bool {
	if !m.open {
		return false
	}
	for x, s := range m.slots {
		if m.key[x] != ch.lin[s][0] {
			return false
		}
	}
	return true
}

// close moves the open group's total into the closed sums.
func (m *ordMask) close() {
	if !m.open {
		return
	}
	m.closed += m.product(m.f, m.g)
	if m.top {
		m.sum2, m.sum4 = addPower(m.sum2, m.sum4, m.f)
	}
}

// withTail is m with the unfolded tail (nil when empty) folded into a copy,
// m itself unchanged: the live moment and statistics read it, so they add
// the tail's rows exactly as folding them will.
func (m *ordMask) withTail(tail *chunk, top bool) ordMask {
	cp := *m
	cp.top = top
	cp.key = slices.Clone(m.key) // fold reuses the key buffer
	if tail != nil {
		cp.fold(tail)
	}
	return cp
}

// live returns the moment including the unfolded tail, without changing
// state.
func (m *ordMask) live(tail *chunk) float64 { return m.withTail(tail, false).run }

// exact returns Σ_groups f·g over the folded groups in first-seen order.
func (m *ordMask) exact() float64 {
	if m.open {
		return m.closed + m.product(m.f, m.g)
	}
	return m.closed
}

// stats returns the full-mask group statistics (group count, Σt², Σt⁴)
// over the folded groups and the unfolded tail, without changing state:
// the groups in first-seen order, the last (still open) one included.
func (m *ordMask) stats(tail *chunk) (groups int, sum2, sum4 float64) {
	cp := m.withTail(tail, m.top)
	cp.close()
	return cp.groups, cp.sum2, cp.sum4
}

// Package sampling implements concrete, executable sampling operators and
// their translations into GUS quasi-operators (§4.2, Figure 1): Bernoulli,
// fixed-size without-replacement (WOR), SYSTEM/block sampling, and the
// seeded lineage-hash Bernoulli used for §7 sub-sampling and for
// multi-dimensional Bernoulli designs.
//
// Each Method both draws samples (Apply) and reports its GUS parameters
// (Params); the plan rewriter relies on the two being consistent.
package sampling

import (
	"fmt"
	"sort"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Cardinality reports the tuple count of a named base relation (or, for
// block sampling, the count of sampling units). WOR-style methods need it
// to translate into GUS parameters.
type Cardinality func(rel string) (int, error)

// Method is a sampling operator bound to one or more base relations.
type Method interface {
	// Name is a short human-readable description, e.g. "bernoulli(0.1)".
	Name() string
	// Relations lists the base-relation aliases the method samples over.
	Relations() []string
	// Params returns the GUS translation G(a,b̄) of the method.
	Params(card Cardinality) (*core.Params, error)
	// Apply draws a sample from the input rows. The input's lineage schema
	// must include every relation the method samples.
	Apply(in *ops.Rows, rng *stats.RNG) (*ops.Rows, error)
}

// slotOf finds the lineage slot of rel within in, or errors.
func slotOf(in *ops.Rows, rel string) (int, error) {
	i, ok := in.LSch.Index(rel)
	if !ok {
		return 0, fmt.Errorf("sampling: input lineage %v does not include %q", in.LSch.Names(), rel)
	}
	return i, nil
}

// Bernoulli keeps each tuple of one relation independently with probability
// P — the TABLESAMPLE (p PERCENT) of the paper's Query 1.
type Bernoulli struct {
	Rel string
	P   float64
}

// NewBernoulli constructs a Bernoulli method after validating p ∈ [0,1].
func NewBernoulli(rel string, p float64) (*Bernoulli, error) {
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("sampling: bernoulli probability %v outside [0,1]", p)
	}
	if rel == "" {
		return nil, fmt.Errorf("sampling: bernoulli needs a relation name")
	}
	return &Bernoulli{Rel: rel, P: p}, nil
}

// Name implements Method.
func (b *Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%g)", b.P) }

// Relations implements Method.
func (b *Bernoulli) Relations() []string { return []string{b.Rel} }

// Params implements Method (Figure 1 row 1).
func (b *Bernoulli) Params(Cardinality) (*core.Params, error) { return core.Bernoulli(b.Rel, b.P) }

// Apply implements Method.
func (b *Bernoulli) Apply(in *ops.Rows, rng *stats.RNG) (*ops.Rows, error) {
	if _, err := slotOf(in, b.Rel); err != nil {
		return nil, err
	}
	out := &ops.Rows{Cols: in.Cols, LSch: in.LSch}
	for _, row := range in.Data {
		if rng.Bernoulli(b.P) {
			out.Data = append(out.Data, row)
		}
	}
	return out, nil
}

// WOR draws exactly K tuples uniformly without replacement from one
// relation — the TABLESAMPLE (n ROWS) of the paper's Query 1. If the input
// has fewer than K tuples the whole input is kept (and Params degrades to
// the identity accordingly).
type WOR struct {
	Rel string
	K   int
}

// NewWOR constructs a WOR method after validating k ≥ 0.
func NewWOR(rel string, k int) (*WOR, error) {
	if k < 0 {
		return nil, fmt.Errorf("sampling: WOR size %d is negative", k)
	}
	if rel == "" {
		return nil, fmt.Errorf("sampling: WOR needs a relation name")
	}
	return &WOR{Rel: rel, K: k}, nil
}

// Name implements Method.
func (w *WOR) Name() string { return fmt.Sprintf("wor(%d)", w.K) }

// Relations implements Method.
func (w *WOR) Relations() []string { return []string{w.Rel} }

// Params implements Method (Figure 1 row 2). It needs the relation's
// cardinality N.
func (w *WOR) Params(card Cardinality) (*core.Params, error) {
	if card == nil {
		return nil, fmt.Errorf("sampling: WOR params need a cardinality oracle")
	}
	n, err := card(w.Rel)
	if err != nil {
		return nil, fmt.Errorf("sampling: WOR over %s: %w", w.Rel, err)
	}
	k := w.K
	if k > n {
		k = n
	}
	return core.WOR(w.Rel, k, n)
}

// Apply implements Method.
func (w *WOR) Apply(in *ops.Rows, rng *stats.RNG) (*ops.Rows, error) {
	if _, err := slotOf(in, w.Rel); err != nil {
		return nil, err
	}
	n := in.Len()
	if w.K >= n {
		return in.Clone(), nil
	}
	// Partial Fisher–Yates over an index array: the first K entries are a
	// uniform K-subset.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < w.K; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := append([]int(nil), idx[:w.K]...)
	sort.Ints(chosen) // keep input order for determinism of downstream ops
	out := &ops.Rows{Cols: in.Cols, LSch: in.LSch, Data: make([]ops.Row, 0, w.K)}
	for _, i := range chosen {
		out.Data = append(out.Data, in.Data[i])
	}
	return out, nil
}

// Block implements SQL SYSTEM sampling: the input is split into consecutive
// blocks of BlockSize tuples (pages) and each block is kept independently
// with probability P.
//
// Plain block sampling is not a GUS over tuple lineage — the pair-inclusion
// probability of two distinct tuples depends on block co-residency, not on
// lineage agreement. It IS a GUS over *block* lineage, so Apply rewrites
// the relation's lineage IDs to block IDs (the sampling unit becomes the
// block, exactly the "block-based variants" the paper's §1 mentions). The
// estimator's group-by-lineage machinery then handles intra-block
// correlation automatically: y-terms group whole blocks.
type Block struct {
	Rel       string
	BlockSize int
	P         float64
}

// NewBlock validates and constructs a Block method.
func NewBlock(rel string, blockSize int, p float64) (*Block, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sampling: block size %d must be positive", blockSize)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("sampling: block probability %v outside [0,1]", p)
	}
	if rel == "" {
		return nil, fmt.Errorf("sampling: block sampling needs a relation name")
	}
	return &Block{Rel: rel, BlockSize: blockSize, P: p}, nil
}

// Name implements Method.
func (b *Block) Name() string { return fmt.Sprintf("system(%g,block=%d)", b.P, b.BlockSize) }

// Relations implements Method.
func (b *Block) Relations() []string { return []string{b.Rel} }

// Params implements Method: Bernoulli over blocks, so a = p, b_∅ = p²,
// b_rel = p — identical in form to Figure 1's Bernoulli row, with the
// sampling unit being the block.
func (b *Block) Params(Cardinality) (*core.Params, error) { return core.Bernoulli(b.Rel, b.P) }

// Apply implements Method, rewriting lineage IDs to 1-based block IDs.
func (b *Block) Apply(in *ops.Rows, rng *stats.RNG) (*ops.Rows, error) {
	slot, err := slotOf(in, b.Rel)
	if err != nil {
		return nil, err
	}
	if in.LSch.Len() != 1 {
		return nil, fmt.Errorf("sampling: SYSTEM sampling must be applied directly to a base relation")
	}
	out := &ops.Rows{Cols: in.Cols, LSch: in.LSch}
	numBlocks := (in.Len() + b.BlockSize - 1) / b.BlockSize
	keep := make([]bool, numBlocks)
	for i := range keep {
		keep[i] = rng.Bernoulli(b.P)
	}
	for i, row := range in.Data {
		blk := i / b.BlockSize
		if !keep[blk] {
			continue
		}
		lin := row.Lin.Clone()
		lin[slot] = lineage.TupleID(blk + 1)
		out.Data = append(out.Data, ops.Row{Lin: lin, Vals: row.Vals})
	}
	return out, nil
}

// LineageHash keeps a tuple iff, for every sampled relation r with
// probability p_r, HashID(seed_r, lineageID_r) < p_r. Because the decision
// is a pure function of (seed, lineage), eliminating a base tuple
// eliminates it from every result tuple it appears in — the §7 requirement
// that makes sub-sampling of join results a GUS. With one relation it is a
// repeatable Bernoulli; with several it is the multi-dimensional Bernoulli
// of Example 5 (composition, Prop. 9); with some probabilities set to 1 it
// is AQUA-style chained sampling (fact table sampled, dimensions kept).
type LineageHash struct {
	Seed  uint64
	rels  []string
	probs map[string]float64
}

// NewLineageHash builds a lineage-hash method over the given per-relation
// probabilities. Iteration order of rels is fixed at construction (sorted)
// so the GUS schema is deterministic.
func NewLineageHash(seed uint64, probs map[string]float64) (*LineageHash, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("sampling: lineage-hash method needs at least one relation")
	}
	rels := make([]string, 0, len(probs))
	for r := range probs {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	// Validate in sorted order so the same bad input reports the same
	// error on every run.
	cp := make(map[string]float64, len(probs))
	for _, r := range rels {
		p := probs[r]
		if r == "" {
			return nil, fmt.Errorf("sampling: empty relation name")
		}
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("sampling: probability %v for %s outside [0,1]", p, r)
		}
		cp[r] = p
	}
	return &LineageHash{Seed: seed, rels: rels, probs: cp}, nil
}

// Name implements Method.
func (m *LineageHash) Name() string {
	s := "lineage-bernoulli("
	for i, r := range m.rels {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s:%g", r, m.probs[r])
	}
	return s + ")"
}

// Relations implements Method.
func (m *LineageHash) Relations() []string { return append([]string(nil), m.rels...) }

// Prob returns the sampling probability for one of the method's relations.
func (m *LineageHash) Prob(rel string) float64 { return m.probs[rel] }

// Params implements Method: the composition (Prop. 9) of per-relation
// Bernoulli methods.
func (m *LineageHash) Params(Cardinality) (*core.Params, error) {
	var out *core.Params
	for _, r := range m.rels {
		p, err := core.Bernoulli(r, m.probs[r])
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = p
			continue
		}
		if out, err = core.Compose(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RelSeed derives a per-relation seed from a method seed and the
// relation's name, so distinct relations get independent hash streams
// (§7: "one seed per base relation"). Exported because materialized
// synopses must reproduce the exact stream a lineage-hash query would use
// when deciding coordinated subsumption.
func RelSeed(seed uint64, rel string) uint64 {
	h := seed
	for _, c := range []byte(rel) {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a step
	}
	return h
}

// relSeed is RelSeed bound to the method's own seed.
func (m *LineageHash) relSeed(rel string) uint64 { return RelSeed(m.Seed, rel) }

// Keeps reports the (deterministic) decision for one base tuple of one of
// the method's relations.
func (m *LineageHash) Keeps(rel string, id lineage.TupleID) bool {
	return stats.HashID(m.relSeed(rel), uint64(id)) < m.probs[rel]
}

// Residual is the Bernoulli(P/Q) quasi-operator the planner composes on
// top of a materialized Bernoulli(Q) synopsis scan (Prop. 8): the synopsis
// already thinned the relation to rate Q, the query asked for rate P ≤ Q,
// so the residual keeps each synopsis tuple with probability P/Q and the
// stacked process is Bernoulli(P) over the base relation.
//
// Two decision modes, both pure functions of their inputs:
//
//   - Nested (Nested=true): keep iff HashID(Hash, id) < P, where Hash is
//     the synopsis's per-row hash seed. Because synopsis membership is
//     HashID(Hash, id) < rate with rate ≥ P, the kept set is EXACTLY the
//     set a coordinated Bernoulli(P) draw over the full relation would
//     produce — bit-identical rows to the unrewritten coordinated query,
//     and the only sound mode over stratified synopses (where the
//     per-row synopsis rate varies).
//   - Fresh (Nested=false): keep with probability P/Q from the engine's
//     node-seeded stream, so WithSeed varies the realization exactly as a
//     plain Bernoulli sample would. Unconditionally (over the synopsis
//     build's own randomness) the stacked process is Bernoulli(P).
type Residual struct {
	// Rel is the lineage alias of the scanned relation.
	Rel string
	// P is the query's requested sampling rate, Q the synopsis rate
	// backing this scan (the conservative minimum for stratified
	// synopses). Invariant: 0 < P ≤ Q ≤ 1.
	P, Q float64
	// Hash is the synopsis's per-row hash seed (already relation-folded);
	// used only when Nested.
	Hash   uint64
	Nested bool
}

// Name implements Method.
func (m *Residual) Name() string {
	mode := "fresh"
	if m.Nested {
		mode = "nested"
	}
	return fmt.Sprintf("residual(%g/%g,%s)", m.P, m.Q, mode)
}

// Relations implements Method.
func (m *Residual) Relations() []string { return []string{m.Rel} }

// Params implements Method: the residual is a Bernoulli(P/Q) over the
// synopsis scan; stacked on the scan's declared GUS Bernoulli(Q), Prop. 8
// compacts the pair to Bernoulli(P) over the base relation.
func (m *Residual) Params(Cardinality) (*core.Params, error) {
	if !(m.Q > 0) || m.P > m.Q || m.P < 0 {
		return nil, fmt.Errorf("sampling: residual rates p=%v q=%v invalid (need 0 ≤ p ≤ q, q > 0)", m.P, m.Q)
	}
	return core.Bernoulli(m.Rel, m.P/m.Q)
}

// Keeps is the nested decision for one base tuple: the coordinated hash
// that decided synopsis membership, re-thresholded at the query's rate.
func (m *Residual) Keeps(id lineage.TupleID) bool {
	return stats.HashID(m.Hash, uint64(id)) < m.P
}

// Apply implements Method (the serial reference the parallel engine paths
// are bit-compatible with for the nested mode; the fresh mode consumes the
// given RNG exactly like Bernoulli does).
func (m *Residual) Apply(in *ops.Rows, rng *stats.RNG) (*ops.Rows, error) {
	slot, err := slotOf(in, m.Rel)
	if err != nil {
		return nil, err
	}
	out := &ops.Rows{Cols: in.Cols, LSch: in.LSch}
	if m.Nested {
		for _, row := range in.Data {
			if m.Keeps(row.Lin[slot]) {
				out.Data = append(out.Data, row)
			}
		}
		return out, nil
	}
	frac := m.P / m.Q
	for _, row := range in.Data {
		if rng.Bernoulli(frac) {
			out.Data = append(out.Data, row)
		}
	}
	return out, nil
}

// Apply implements Method. The RNG is unused: decisions are pure functions
// of the seed and lineage, which is the point.
func (m *LineageHash) Apply(in *ops.Rows, _ *stats.RNG) (*ops.Rows, error) {
	slots := make([]int, len(m.rels))
	for i, r := range m.rels {
		s, err := slotOf(in, r)
		if err != nil {
			return nil, err
		}
		slots[i] = s
	}
	out := &ops.Rows{Cols: in.Cols, LSch: in.LSch}
rows:
	for _, row := range in.Data {
		for i, r := range m.rels {
			if !m.Keeps(r, row.Lin[slots[i]]) {
				continue rows
			}
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}

// Columnar execution. Plans execute over typed batch.Batch columns with
// morsel partitioning and per-(seed, node, row) sampling decisions (see
// the package comment for the determinism contract).
//
// The common TABLESAMPLE shape — scan → {Bernoulli, SYSTEM, lineage-hash}
// sample → selections → optional projection — runs as ONE fused
// partition-at-a-time kernel (pipe): each partition computes a selection
// vector through sampling, every predicate narrows it in place
// (expr.VecCompiled.Filter), and only surviving rows are ever gathered or
// projected, directly into their final output position.
// WOR sampling, joins and the lineage set operators are separate columnar
// operators.
package engine

import (
	"fmt"
	"slices"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
)

// ExecuteBatch runs the plan and returns the result as a typed batch with
// its lineage. seed drives all sampling decisions; the same (plan, seed)
// yields the same batch regardless of Config.Workers.
func (e *Engine) ExecuteBatch(root plan.Node, seed uint64) (*batch.Batch, error) {
	ids := plan.NumberNodes(root)
	return e.execB(root, seed, ids)
}

// execB dispatches one plan node. When a trace is
// attached, every operator records a span (the fused chain records one
// span for the whole scan→sample→select→project pass; joins split into
// build and probe). The untraced path pays one nil test per span site.
func (e *Engine) execB(n plan.Node, seed uint64, ids map[plan.Node]uint64) (*batch.Batch, error) {
	if c := fusedChainOf(n); c != nil {
		return e.execFused(c, seed, ids, int(ids[n]))
	}
	switch t := n.(type) {
	case *plan.Scan:
		sp := e.trace.Begin("scan", t.Label(), int(ids[n]))
		b, err := batch.FromRelation(t.Rel, t.Alias)
		if err != nil {
			return nil, err
		}
		if len(t.Cols) > 0 {
			if b, err = b.Narrow(t.Cols); err != nil {
				return nil, err
			}
		}
		e.trace.End(sp, int64(b.Len()), int64(b.Len()))
		return b, nil
	case *plan.GUS:
		return e.execB(t.Input, seed, ids)
	case *plan.Sample:
		in, err := e.execB(t.Input, seed, ids)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Begin("sample", t.Method.Name(), int(ids[n]))
		out, err := e.execSampleB(t, in, plan.SubSeed(seed, ids[n]))
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", t.Label(), err)
		}
		e.trace.End(sp, int64(in.Len()), int64(out.Len()))
		e.trace.SetSpan(sp, func(s *obs.Span) {
			s.Partitions = len(ops.Partitions(in.Len(), e.partSize))
			s.Fraction = methodFraction(t.Method)
		})
		return out, nil
	case *plan.Select:
		in, err := e.execB(t.Input, seed, ids)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Begin("select", t.Pred.String(), int(ids[n]))
		out, err := e.execSelectB(in, t.Pred)
		if err != nil {
			return nil, err
		}
		e.trace.End(sp, int64(in.Len()), int64(out.Len()))
		return out, nil
	case *plan.Project:
		in, err := e.execB(t.Input, seed, ids)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Begin("project", t.Label(), int(ids[n]))
		out, err := e.execProjectB(in, t.Names, t.Exprs)
		if err != nil {
			return nil, err
		}
		e.trace.End(sp, int64(in.Len()), int64(out.Len()))
		return out, nil
	case *plan.Join:
		l, r, err := both(e, t.Left, t.Right, func(n plan.Node) (joinInput, error) { return e.execJoinInput(n, seed, ids) })
		var out *batch.Batch
		if err == nil {
			out, err = e.execJoinB(l, r, t.LeftCol, t.RightCol, int(ids[n]))
		}
		// The inputs were executed for this join alone and the output
		// holds copies of the joined rows, so the selections and any
		// materialized input go back to the pools now, on every path.
		l.release()
		r.release()
		return out, err
	case *plan.Theta:
		l, r, err := e.both(t.Left, t.Right, seed, ids)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Begin("theta", t.Pred.String(), int(ids[n]))
		out, err := e.execThetaB(l, r, t.Pred)
		if err != nil {
			return nil, err
		}
		e.trace.End(sp, int64(l.Len())+int64(r.Len()), int64(out.Len()))
		return out, nil
	case *plan.Union:
		l, r, err := e.both(t.Left, t.Right, seed, ids)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Begin("union", "", int(ids[n]))
		out, err := execUnionB(l, r)
		if err != nil {
			return nil, err
		}
		e.trace.End(sp, int64(l.Len())+int64(r.Len()), int64(out.Len()))
		return out, nil
	case *plan.Intersect:
		l, r, err := e.both(t.Left, t.Right, seed, ids)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Begin("intersect", "", int(ids[n]))
		out, err := execIntersectB(l, r)
		if err != nil {
			return nil, err
		}
		e.trace.End(sp, int64(l.Len())+int64(r.Len()), int64(out.Len()))
		return out, nil
	default:
		return nil, fmt.Errorf("engine: unknown node %T", n)
	}
}

// methodFraction reports a sampling method's effective per-tuple
// inclusion fraction, 0 when the method has no fixed fraction (WOR's
// depends on the input size).
func methodFraction(m sampling.Method) float64 {
	switch t := m.(type) {
	case *sampling.Bernoulli:
		return t.P
	case *sampling.Block:
		return t.P
	case *sampling.LineageHash:
		f := 1.0
		for _, r := range t.Relations() {
			f *= t.Prob(r)
		}
		return f
	case *sampling.Residual:
		if t.Q > 0 {
			return t.P / t.Q
		}
		return 0
	default:
		return 0
	}
}

// ---------------------------------------------------------------------------
// Fused scan→sample→select→project chains.

// fusedChain is a plan fragment the fused kernel executes in one pass:
// project? ← select* ← sample? ← scan, with GUS quasi-operators (pure
// pass-throughs) allowed anywhere in between.
type fusedChain struct {
	scan    *plan.Scan
	sample  *plan.Sample // nil, or a method other than WOR directly above the scan
	preds   []expr.Expr  // in application (bottom-up) order
	project *plan.Project
}

// fusedChainOf recognizes the fusable shape rooted at n, or returns nil.
// Only a sample sitting directly above the scan fuses: its partition spans
// are then the relation's spans.
func fusedChainOf(n plan.Node) *fusedChain {
	c := &fusedChain{}
	n = stripGUS(n)
	if p, ok := n.(*plan.Project); ok {
		c.project = p
		n = stripGUS(p.Input)
	}
	for {
		s, ok := n.(*plan.Select)
		if !ok {
			break
		}
		c.preds = append(c.preds, s.Pred)
		n = stripGUS(s.Input)
	}
	// Collected top-down; apply bottom-up.
	for i, j := 0, len(c.preds)-1; i < j; i, j = i+1, j-1 {
		c.preds[i], c.preds[j] = c.preds[j], c.preds[i]
	}
	if s, ok := n.(*plan.Sample); ok {
		_, isWOR := s.Method.(*sampling.WOR)
		if _, isScan := stripGUS(s.Input).(*plan.Scan); isScan && !isWOR {
			c.sample = s
			n = stripGUS(s.Input)
		}
	}
	scan, ok := n.(*plan.Scan)
	if !ok {
		return nil
	}
	c.scan = scan
	// A bare scan (or GUS-wrapped scan) is cheaper on the direct path.
	if c.sample == nil && len(c.preds) == 0 && c.project == nil {
		return nil
	}
	return c
}

func stripGUS(n plan.Node) plan.Node {
	for {
		g, ok := n.(*plan.GUS)
		if !ok {
			return n
		}
		n = g.Input
	}
}

func (e *Engine) execFused(c *fusedChain, seed uint64, ids map[plan.Node]uint64, node int) (*batch.Batch, error) {
	st, err := e.prepareChain(c, seed, ids)
	if err != nil {
		return nil, err
	}
	sp := e.trace.Begin("fused", c.label(), node)
	out, skipped, err := e.pipe(st)
	if err != nil {
		return nil, err
	}
	e.endFused(sp, st, out.Len(), skipped)
	return out, nil
}

// selectFused runs a fused chain's phase 1 alone, for a hash join that
// reads the chain's rows through their selection: the join input is the
// scan's own columns plus one pooled slice of the kept row indices.
func (e *Engine) selectFused(c *fusedChain, seed uint64, ids map[plan.Node]uint64, node int) (joinInput, error) {
	st, err := e.prepareChain(c, seed, ids)
	if err != nil {
		return joinInput{}, err
	}
	sp := e.trace.Begin("fused", c.label(), node)
	s, err := e.selectWindow(st, e.partitionsFor(st.in.Len()), 0)
	if err != nil {
		return joinInput{}, err
	}
	sel := s.flatten()
	s.release()
	e.endFused(sp, st, len(sel), s.skipped)
	return joinInput{src: st.in, sel: sel}, nil
}

// endFused closes a fused chain's trace span.
func (e *Engine) endFused(sp int, st *stages, rowsOut, skipped int) {
	e.trace.End(sp, int64(st.in.Len()), int64(rowsOut))
	e.trace.SetSpan(sp, func(s *obs.Span) {
		s.Partitions = len(e.partitionsFor(st.in.Len()))
		s.Skipped = skipped
		if st.smp != nil {
			s.Fraction = st.smp.frac()
		}
	})
}

// label summarizes a fused chain for its trace span: the scanned
// relation, the sampling method if any, and the fused stage counts.
func (c *fusedChain) label() string {
	l := c.scan.Label()
	if c.sample != nil {
		l += " + " + c.sample.Method.Name()
	}
	if n := len(c.preds); n > 0 {
		l += fmt.Sprintf(" + %dσ", n)
	}
	if c.project != nil {
		l += " + π"
	}
	return l
}

// blockSampled reports whether the chain samples with SYSTEM, whose
// gather rewrites the sampled relation's lineage to block IDs.
func (c *fusedChain) blockSampled() bool {
	if c.sample == nil {
		return false
	}
	_, ok := c.sample.Method.(*sampling.Block)
	return ok
}

// stages is the fused kernel's compiled work over one input: the
// optional sampling stage, the predicates in application order, the
// optional projection, and the zone pruner the predicates admit.
type stages struct {
	in    *batch.Batch
	smp   *sampleStage
	preds []*expr.VecCompiled
	proj  *projSpec
	zp    *zonePruner
}

// prepareChain compiles a fused chain's stages once: the scan's columnar
// input, the (optional) sampling stage with its node-derived sub-seed, the
// compiled predicates, the (optional) projection, and the zone pruner the
// predicates admit. Under a prepared statement the kernel compiles come
// from the statement's snapshot.
func (e *Engine) prepareChain(c *fusedChain, seed uint64, ids map[plan.Node]uint64) (*stages, error) {
	in, err := batch.FromRelation(c.scan.Rel, c.scan.Alias)
	if err != nil {
		return nil, err
	}
	// The zone pruner must see the full schema: Batch.Zones keeps the
	// relation's column indexing even after narrowing.
	zoneSchema := in.Schema
	if len(c.scan.Cols) > 0 {
		if in, err = in.Narrow(c.scan.Cols); err != nil {
			return nil, err
		}
	}
	st := &stages{in: in, zp: e.newZonePruner(c.preds, zoneSchema)}
	if c.sample != nil {
		st.smp, err = newSampleStage(c.sample.Method, in, plan.SubSeed(seed, ids[c.sample]))
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", c.sample.Label(), err)
		}
	}
	if c.project != nil {
		if st.proj, err = e.newProjSpec(in.Schema, c.project.Names, c.project.Exprs); err != nil {
			return nil, err
		}
	}
	if st.preds, err = e.compilePreds(c.preds, in.Schema); err != nil {
		return nil, err
	}
	return st, nil
}

func (e *Engine) compilePreds(preds []expr.Expr, schema *relation.Schema) ([]*expr.VecCompiled, error) {
	out := make([]*expr.VecCompiled, len(preds))
	for i, p := range preds {
		c, err := e.compileVec(p, schema)
		if err != nil {
			return nil, fmt.Errorf("engine: select: %w", err)
		}
		out[i] = c
	}
	return out, nil
}

// sampleStage is the fusable part of a sampling operator: its keep rule,
// whose every decision is a pure function of (sub-seed, row index) or of
// the row's lineage — never of other rows or of the partitioning.
type sampleStage struct {
	method  sampling.Method
	rule    *sampling.Rule
	branchy bool // lineage-keyed selection-loop form (branchySel)
}

// frac reports the stage's per-tuple inclusion fraction for tracing.
func (s *sampleStage) frac() float64 { return methodFraction(s.method) }

// newSampleStage binds m's keep rule to the input. WOR never gets here: its
// rule keeps a global bottom K (see sampleWORB).
func newSampleStage(m sampling.Method, in *batch.Batch, sub uint64) (*sampleStage, error) {
	r, err := sampling.RuleOf(m, in.LSch, sub)
	if err != nil {
		return nil, err
	}
	return &sampleStage{method: m, rule: r, branchy: branchySel(methodFraction(m))}, nil
}

// growSel extends sel with room for n more entries and returns it at full
// length; callers write kept indices at sel[k] and truncate to the final k.
func growSel(sel []int32, n int) []int32 {
	need := len(sel) + n
	if cap(sel) < need {
		ns := make([]int32, len(sel), need)
		copy(ns, sel)
		sel = ns
	}
	return sel[:need]
}

// branchySel picks the selection-loop form of a lineage-keyed rule for a
// keep fraction. At extreme fractions (a 1% sample, a 99% residual) the keep
// branch predicts near-perfectly and a conditional write is cheapest. At
// moderate fractions the branch mispredicts on a large share of rows and
// the penalty, not the hash, dominates the scan; there the loop writes the
// candidate index UNCONDITIONALLY and bumps the cursor only on keeps,
// trading one store-buffer write per rejected row for no mispredicts. Both
// forms keep the identical set: only the write pattern differs.
func branchySel(frac float64) bool { return frac < 0.0625 || frac > 0.9375 }

// selectSpan appends the kept row indices of span to sel, deciding every
// row by the stage's keep rule. Row- and block-keyed rules decide by
// absolute row index, a word or a block at a time (Rule.AppendRows); a
// lineage-keyed rule hashes each row's tuple IDs (the two write patterns of
// branchySel keep the identical set).
func (s *sampleStage) selectSpan(in *batch.Batch, span ops.Span, sel []int32) []int32 {
	r := s.rule
	switch r.Keying {
	case sampling.ByRow, sampling.ByBlock:
		return r.AppendRows(span.Lo, span.Hi, sel)
	}
	k := len(sel)
	sel = growSel(sel, span.Hi-span.Lo)
	// Lineage-keyed: the first relation decides, the rest filter.
	lo, ids := k, in.Lin[r.Slots[0]]
	if s.branchy {
		for i := span.Lo; i < span.Hi; i++ {
			if r.KeepsID(0, ids[i]) {
				sel[k] = int32(i)
				k++
			}
		}
	} else {
		for i := span.Lo; i < span.Hi; i++ {
			sel[k] = int32(i)
			if r.KeepsID(0, ids[i]) {
				k++
			}
		}
	}
	for j := 1; j < len(r.Slots); j++ {
		ids, kept := in.Lin[r.Slots[j]], lo
		for _, i := range sel[lo:k] {
			if r.KeepsID(j, ids[i]) {
				sel[kept] = i
				kept++
			}
		}
		k = kept
	}
	return sel[:k]
}

// projSpec is a compiled projection: output names, kernels, and the
// statically inferred output kinds.
type projSpec struct {
	names    []string
	compiled []*expr.VecCompiled
}

func (e *Engine) newProjSpec(schema *relation.Schema, names []string, exprs []expr.Expr) (*projSpec, error) {
	if len(names) != len(exprs) {
		return nil, fmt.Errorf("engine: project: %d names for %d expressions", len(names), len(exprs))
	}
	ps := &projSpec{names: names, compiled: make([]*expr.VecCompiled, len(exprs))}
	for i, ex := range exprs {
		c, err := e.compileVec(ex, schema)
		if err != nil {
			return nil, fmt.Errorf("engine: project %s: %w", ex, err)
		}
		ps.compiled[i] = c
	}
	return ps, nil
}

// schemaFor builds the output schema. With at least one output row the
// kinds are the kernels' static kinds (identical to what the reference
// executor's Project infers from the first row); an empty output defaults
// every column to float, again matching it.
func (ps *projSpec) schemaFor(total int) (*relation.Schema, error) {
	cols := make([]relation.Column, len(ps.compiled))
	for i, c := range ps.compiled {
		kind := relation.KindFloat
		if total > 0 {
			kind = c.Kind()
		}
		cols[i] = relation.Column{Name: ps.names[i], Kind: kind}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("engine: project: %w", err)
	}
	return schema, nil
}

// pipe is the fused partition-at-a-time kernel. Phase 1 (selectWindow)
// computes each partition's final selection vector: the sampling stage
// selects rows, then each predicate in turn narrows the vector in place
// (Filter), so a predicate reads only the rows still selected and never a
// row the sample rejected; without a sampling stage the first predicate
// decides the span directly (FilterRange). Phase 2 prefix-sums partition
// offsets; phase 3 (gatherWindow) gathers or projects the surviving rows
// directly into their final output positions. Partition boundaries depend
// only on the input length and partition size, and phase-3 workers write
// disjoint ranges, so results are bit-identical at any worker count.
//
// Partitions that need no per-row selection — no sampling stage and no
// predicates — are copied or projected from zero-copy column slices
// (expr.Vec.Slice + EvalAll) instead of building identity selection
// vectors and gathering.
func (e *Engine) pipe(st *stages) (*batch.Batch, int, error) {
	return e.pipeWindow(st, e.partitionsFor(st.in.Len()), 0)
}

// pipeWindow is pipe restricted to a window of consecutive input
// partitions: spans must be a contiguous sub-slice of the input's full
// partitioning and pBase the global index of spans[0]. Row indices stay
// absolute (spans address the full input; selection vectors and Filter
// index the full columns) and every sampling decision is keyed on them,
// so the concatenation of windowed outputs over a cover of the partitions
// is bit-identical to one full pipe — the property progressive wave
// execution rests on. The second return value is the number of
// partitions zone maps skipped.
func (e *Engine) pipeWindow(st *stages, spans []ops.Span, pBase int) (*batch.Batch, int, error) {
	s, err := e.selectWindow(st, spans, pBase)
	if err != nil {
		return nil, 0, err
	}
	out, err := e.gatherWindow(st, s)
	s.release()
	if err != nil {
		return nil, 0, err
	}
	return out, s.skipped, nil
}

// selection is phase 1's result over a window of partitions: each
// partition's kept absolute row indices, or full when every row of its
// span survives without a per-row selection.
type selection struct {
	spans   []ops.Span
	sels    [][]int32 // pooled; nil where full, skipped or empty
	full    []bool
	offs    []int // offs[p] = kept rows before partition p; offs[len(spans)] = total
	skipped int
}

// rows reports the window's kept row count.
func (s *selection) rows() int { return s.offs[len(s.spans)] }

// release returns the partitions' selection vectors to the pool.
func (s *selection) release() {
	for p, sel := range s.sels {
		if sel != nil {
			putI32(sel)
			s.sels[p] = nil
		}
	}
}

// flatten concatenates the window's kept row indices, in partition order,
// into one pooled slice.
func (s *selection) flatten() []int32 {
	out := getI32(s.rows())
	for p, span := range s.spans {
		dst := out[s.offs[p]:s.offs[p+1]]
		if !s.full[p] {
			copy(dst, s.sels[p])
			continue
		}
		for k := range dst {
			dst[k] = int32(span.Lo + k)
		}
	}
	return out
}

// windowRows is the number of input rows a window of spans covers.
func windowRows(spans []ops.Span) int {
	if len(spans) == 0 {
		return 0
	}
	return spans[len(spans)-1].Hi - spans[0].Lo
}

// selectWindow runs the kernel's phases 1 and 2 over a window of
// partitions.
//
// When the input carries a zone map whose granularity matches the engine's
// partition size, the pruner (if any) runs first per partition: a
// partition some predicate provably rejects contributes zero rows without
// its columns ever being touched — on an mmap-backed segment, without its
// pages ever faulting in. Skipping is safe at any worker count and wave
// cover because no sampling decision depends on another row's.
func (e *Engine) selectWindow(st *stages, spans []ops.Span, pBase int) (*selection, error) {
	in, smp, preds, zp := st.in, st.smp, st.preds, st.zp
	zones := in.Zones
	if zones == nil || zones.ZoneRows != e.partSize || e.noSkip {
		zp = nil
	}
	s := &selection{
		spans: spans,
		sels:  make([][]int32, len(spans)),
		full:  make([]bool, len(spans)),
		offs:  make([]int, len(spans)+1),
	}
	counts := s.offs[1:] // prefix-summed in place below
	var skipped []bool
	if zp != nil {
		skipped = make([]bool, len(spans))
	}
	err := e.forEach(len(spans), windowRows(spans), func(p int) error {
		span := spans[p]
		if zp != nil && zp.skip(zones, pBase+p) {
			skipped[p] = true
			return nil
		}
		// Selection vectors come from the engine's scratch pool, so
		// steady-state execution — one-shot queries and progressive waves
		// alike — reuses buffers instead of growing fresh ones per span.
		sel := getI32(span.Hi - span.Lo)[:0]
		rest := preds
		switch {
		case smp != nil:
			sel = smp.selectSpan(in, span, sel)
		case len(preds) > 0:
			// The first predicate decides the span's rows directly.
			kept, err := preds[0].FilterRange(in.Cols, e.binds, span.Lo, span.Hi, sel)
			if err != nil {
				putI32(sel)
				return fmt.Errorf("engine: select: %w", err)
			}
			sel, rest = kept, preds[1:]
		default:
			putI32(sel)
			s.full[p], counts[p] = true, span.Hi-span.Lo
			return nil
		}
		for _, pred := range rest {
			if len(sel) == 0 {
				break
			}
			kept, err := pred.Filter(in.Cols, e.binds, sel)
			if err != nil {
				putI32(sel)
				return fmt.Errorf("engine: select: %w", err)
			}
			sel = kept
		}
		s.sels[p], counts[p] = sel, len(sel)
		return nil
	})
	if err != nil {
		s.release()
		return nil, err
	}
	for _, sk := range skipped {
		if sk {
			s.skipped++
		}
	}
	if s.skipped > 0 {
		e.skipped.Add(int64(s.skipped))
	}
	for p := range spans {
		s.offs[p+1] += s.offs[p]
	}
	return s, nil
}

// gatherWindow is the kernel's phase 3: it gathers or projects the rows s
// keeps into one owned batch.
func (e *Engine) gatherWindow(st *stages, s *selection) (*batch.Batch, error) {
	in, smp, proj := st.in, st.smp, st.proj
	total := s.rows()
	var out *batch.Batch
	if proj != nil {
		outSchema, err := proj.schemaFor(total)
		if err != nil {
			return nil, err
		}
		out = batch.Alloc(outSchema, in.LSch, total)
	} else {
		// Unprojected outputs gather column-for-column from one source, so
		// dictionary encodings survive the kernel.
		out = batch.AllocLike(in, total)
	}
	spanCols := func(span ops.Span) []expr.Vec {
		cols := make([]expr.Vec, len(in.Cols))
		for j, c := range in.Cols {
			cols[j] = c.Slice(span.Lo, span.Hi)
		}
		return cols
	}
	err := e.forEach(len(s.spans), windowRows(s.spans), func(p int) error {
		off, count := s.offs[p], s.offs[p+1]-s.offs[p]
		if count == 0 {
			return nil
		}
		span, sel, full := s.spans[p], s.sels[p], s.full[p]
		switch {
		case proj == nil && full:
			for j := range in.Cols {
				copyVec(in.Cols[j].Slice(span.Lo, span.Hi), out.Cols[j], off)
			}
		case proj == nil:
			for j := range in.Cols {
				batch.GatherVec(in.Cols[j], sel, out.Cols[j], off)
			}
		case full:
			cols := spanCols(span)
			for j, c := range proj.compiled {
				v, err := c.EvalAllBind(cols, e.binds, count)
				if err != nil {
					return fmt.Errorf("engine: project: %w", err)
				}
				copyVec(v, out.Cols[j], off)
			}
		default:
			for j, c := range proj.compiled {
				v, err := c.EvalBind(in.Cols, e.binds, sel)
				if err != nil {
					return fmt.Errorf("engine: project: %w", err)
				}
				copyVec(v, out.Cols[j], off)
			}
		}
		for slot := range in.Lin {
			if full {
				copy(out.Lin[slot][off:off+count], in.Lin[slot][span.Lo:span.Hi])
				continue
			}
			if smp != nil && smp.rule.Keying == sampling.ByBlock && slot == smp.rule.Slot {
				dst := out.Lin[slot][off:]
				for k, i := range sel {
					dst[k] = smp.rule.BlockID(int(i))
				}
				continue
			}
			batch.GatherIDs(in.Lin[slot], sel, out.Lin[slot], off)
		}
		return nil
	})
	if err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// copyVec copies a dense kernel result into an output column at offset.
// Kinds match by construction except the reference Project's int→float
// widening of project results, mirrored here (only reachable on the
// empty-input float-default schema, but kept for safety).
func copyVec(src, dst expr.Vec, off int) {
	if src.Kind == relation.KindInt && dst.Kind == relation.KindFloat {
		out := dst.F[off:]
		for k, v := range src.I {
			out[k] = float64(v)
		}
		return
	}
	switch src.Kind {
	case relation.KindInt:
		copy(dst.I[off:], src.I)
	case relation.KindFloat:
		copy(dst.F[off:], src.F)
	default:
		copy(dst.S[off:], src.S)
		if dst.Codes != nil && src.Codes != nil && src.Dict == dst.Dict {
			copy(dst.Codes[off:], src.Codes)
		}
	}
}

// ---------------------------------------------------------------------------
// Standalone columnar operators.

func (e *Engine) execSelectB(in *batch.Batch, pred expr.Expr) (*batch.Batch, error) {
	c, err := e.compileVec(pred, in.Schema)
	if err != nil {
		return nil, fmt.Errorf("engine: select: %w", err)
	}
	out, _, err := e.pipe(&stages{in: in, preds: []*expr.VecCompiled{c}, zp: e.newZonePruner([]expr.Expr{pred}, in.Schema)})
	return out, err
}

func (e *Engine) execProjectB(in *batch.Batch, names []string, exprs []expr.Expr) (*batch.Batch, error) {
	ps, err := e.newProjSpec(in.Schema, names, exprs)
	if err != nil {
		return nil, err
	}
	out, _, err := e.pipe(&stages{in: in, proj: ps})
	return out, err
}

// execSampleB runs one sampling operator. Every method but WOR reuses the
// fused kernel with only a sampling stage; WOR has its own global bottom-K
// implementation.
func (e *Engine) execSampleB(t *plan.Sample, in *batch.Batch, sub uint64) (*batch.Batch, error) {
	if m, ok := t.Method.(*sampling.WOR); ok {
		r, err := sampling.RuleOf(m, in.LSch, sub)
		if err != nil {
			return nil, err
		}
		return e.sampleWORB(in, r)
	}
	smp, err := newSampleStage(t.Method, in, sub)
	if err != nil {
		return nil, err
	}
	out, _, err := e.pipe(&stages{in: in, smp: smp})
	return out, err
}

// sampleWORB draws WOR's uniform K-subset — the rows of the K smallest
// ranks — and emits it in input order with one gather. Each partition
// pre-selects its own bottom K in parallel; the coordinator keeps the
// bottom K of the ≤ parts·K candidates, which is the input's bottom K.
func (e *Engine) sampleWORB(in *batch.Batch, r *sampling.Rule) (*batch.Batch, error) {
	n := in.Len()
	if r.K >= n {
		return in, nil
	}
	spans := ops.Partitions(n, e.partSize)
	parts := make([][]sampling.Cand, len(spans))
	err := e.forEach(len(spans), n, func(p int) error {
		parts[p] = r.Candidates(spans[p].Lo, spans[p].Hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged []sampling.Cand
	for _, p := range parts {
		merged = append(merged, p...)
	}
	sel := make([]int32, 0, r.K)
	for _, c := range sampling.BottomK(merged, r.K) {
		sel = append(sel, int32(c.Index))
	}
	slices.Sort(sel)
	return in.Gather(sel), nil
}

// joinInput is one input of a hash join: the rows sel selects from src,
// in sel order. A fused chain under the join hands over its scan's own
// columns and its phase-1 selection, so its rows are never gathered into a
// batch of their own; any other input arrives materialized, with the
// identity selection.
type joinInput struct {
	src *batch.Batch
	sel []int32 // pooled
}

// release returns the selection to the pool and a materialized source to
// the batch pools (a scan's columns are a relation snapshot: a no-op).
func (j joinInput) release() {
	putI32(j.sel)
	j.src.Release()
}

// execJoinInput executes one input of a hash join. A fused chain that
// neither projects nor samples with SYSTEM (which rewrites lineage to block
// IDs as it gathers) stops after phase 1.
func (e *Engine) execJoinInput(n plan.Node, seed uint64, ids map[plan.Node]uint64) (joinInput, error) {
	if c := fusedChainOf(n); c != nil && c.project == nil && !c.blockSampled() {
		return e.selectFused(c, seed, ids, int(ids[n]))
	}
	b, err := e.execB(n, seed, ids)
	if err != nil {
		return joinInput{}, err
	}
	sel := getI32(b.Len())
	for i := range sel {
		sel[i] = int32(i)
	}
	return joinInput{src: b, sel: sel}, nil
}

// execJoinB is the columnar hash join on the open-addressing joinTable. It
// reads both inputs through their selections: key hashes are computed
// vectorized per partition (dictionary lookups for encoded string
// columns), the build is radix-partitioned and parallel over the input
// with fewer selected rows, and a parallel probe in selection order emits
// (build, probe) source-row pairs, through which the output is gathered
// once from the inputs' source columns and lineage. Chains hold ascending
// build rows and probe partitions emit in selection order, so the output
// is row-for-row identical to the reference executor's hash join at any
// worker count. Matches are decided by canonical hash plus EqualAt's full
// typed compare, never by materialized string keys.
func (e *Engine) execJoinB(l, r joinInput, leftCol, rightCol string, node int) (*batch.Batch, error) {
	li, ok := l.src.Schema.Index(leftCol)
	if !ok {
		return nil, fmt.Errorf("engine: hash join: left input has no column %q", leftCol)
	}
	ri, ok := r.src.Schema.Index(rightCol)
	if !ok {
		return nil, fmt.Errorf("engine: hash join: right input has no column %q", rightCol)
	}
	cols, err := l.src.Schema.Concat(r.src.Schema)
	if err != nil {
		return nil, fmt.Errorf("engine: hash join: %w", err)
	}
	lsch, err := l.src.LSch.Concat(r.src.LSch)
	if err != nil {
		return nil, fmt.Errorf("engine: hash join: %w", err)
	}
	buildLeft := len(l.sel) <= len(r.sel)
	build, probe := l, r
	buildKey, probeKey := li, ri
	if !buildLeft {
		build, probe = r, l
		buildKey, probeKey = ri, li
	}
	buildVec, probeVec := build.src.Cols[buildKey], probe.src.Cols[probeKey]
	bsel, psel := build.sel, probe.sel

	// Vectorized build-side hashing, then the radix-partitioned build over
	// build positions (indices into bsel).
	n := len(bsel)
	var joinLbl string
	if e.trace != nil {
		joinLbl = leftCol + " = " + rightCol
	}
	buildSp := e.trace.Begin("join-build", joinLbl, node)
	bh := getU64(n)
	bspans := e.partitionsFor(n)
	err = e.forEach(len(bspans), n, func(p int) error {
		span := bspans[p]
		batch.HashVecSel(buildVec, bsel[span.Lo:span.Hi], bh[span.Lo:span.Hi])
		return nil
	})
	if err != nil {
		putU64(bh)
		return nil, err
	}
	table, err := e.buildJoinTable(n, bh, func(i, j int32) bool {
		return batch.EqualAt(buildVec, int(bsel[i]), buildVec, int(bsel[j]))
	})
	putU64(bh)
	if err != nil {
		return nil, err
	}
	e.trace.End(buildSp, int64(n), int64(n))
	e.trace.SetSpan(buildSp, func(s *obs.Span) { s.Partitions = len(bspans) })

	// Parallel probe into per-partition (build, probe) source-row pairs.
	probeSp := e.trace.Begin("join-probe", joinLbl, node)
	pspans := e.partitionsFor(len(psel))
	bIdx := make([][]int32, len(pspans))
	pIdx := make([][]int32, len(pspans))
	err = e.forEach(len(pspans), len(psel), func(p int) error {
		rows := psel[pspans[p].Lo:pspans[p].Hi]
		ph, pv := getU64(len(rows)), getU64(len(rows))
		batch.HashVecSel(probeVec, rows, ph)
		table.homes(ph, pv)
		bs, ps := getI32(len(rows))[:0], getI32(len(rows))[:0]
		// One closure per partition: pi advances per row, so probing
		// allocates nothing.
		pi := 0
		eq := func(b int32) bool { return batch.EqualAt(probeVec, pi, buildVec, int(bsel[b])) }
		for k, i := range rows {
			pi = int(i)
			for b := table.head(ph[k], pv[k], eq); b >= 0; b = table.chainNext(b) {
				bs = append(bs, bsel[b])
				ps = append(ps, i)
			}
		}
		putU64(ph)
		putU64(pv)
		bIdx[p], pIdx[p] = bs, ps
		return nil
	})
	table.release()
	if err != nil {
		for p := range bIdx {
			putI32(bIdx[p])
			putI32(pIdx[p])
		}
		return nil, err
	}
	offs := make([]int, len(pspans)+1)
	for p := range bIdx {
		offs[p+1] = offs[p] + len(bIdx[p])
	}
	out := batch.AllocJoined(l.src, r.src, cols, lsch, offs[len(pspans)])
	err = e.forEach(len(pspans), len(psel), func(p int) error {
		lSel, rSel := bIdx[p], pIdx[p]
		if !buildLeft {
			lSel, rSel = pIdx[p], bIdx[p]
		}
		gatherConcat(l.src, r.src, lSel, rSel, out, offs[p])
		return nil
	})
	for p := range bIdx {
		putI32(bIdx[p])
		putI32(pIdx[p])
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	e.trace.End(probeSp, int64(len(psel)), int64(out.Len()))
	e.trace.SetSpan(probeSp, func(s *obs.Span) { s.Partitions = len(pspans) })
	return out, nil
}

// gatherConcat fills out[off:off+len(lSel)] with l-rows lSel concatenated
// with r-rows rSel (columns left-then-right, lineage likewise).
func gatherConcat(l, r *batch.Batch, lSel, rSel []int32, out *batch.Batch, off int) {
	for j := range l.Cols {
		batch.GatherVec(l.Cols[j], lSel, out.Cols[j], off)
	}
	nl := len(l.Cols)
	for j := range r.Cols {
		batch.GatherVec(r.Cols[j], rSel, out.Cols[nl+j], off)
	}
	for s := range l.Lin {
		batch.GatherIDs(l.Lin[s], lSel, out.Lin[s], off)
	}
	nls := len(l.Lin)
	for s := range r.Lin {
		batch.GatherIDs(r.Lin[s], rSel, out.Lin[nls+s], off)
	}
}

// execThetaB is the columnar partitioned nested-loops θ-join: for each left
// row, with that row's values pinned as broadcast constants, FilterRange
// narrows the right side's row indices in place to those that satisfy the
// predicate — no truth vector is written and no per-pair tuple is ever
// materialized, only matching (i, j) index pairs.
func (e *Engine) execThetaB(l, r *batch.Batch, pred expr.Expr) (*batch.Batch, error) {
	cols, err := l.Schema.Concat(r.Schema)
	if err != nil {
		return nil, fmt.Errorf("engine: theta join: %w", err)
	}
	lsch, err := l.LSch.Concat(r.LSch)
	if err != nil {
		return nil, fmt.Errorf("engine: theta join: %w", err)
	}
	c, err := e.compileVec(pred, cols)
	if err != nil {
		return nil, fmt.Errorf("engine: theta join: %w", err)
	}
	rn := r.Len()
	spans := ops.Partitions(l.Len(), e.partSize)
	lIdx := make([][]int32, len(spans))
	rIdx := make([][]int32, len(spans))
	err = e.forEach(len(spans), l.Len()*max(1, rn), func(p int) error {
		// Combined column view: left columns as broadcast constants
		// (mutated per left row), right columns as-is.
		nl := len(l.Cols)
		view := make([]expr.Vec, nl+len(r.Cols))
		for j := range l.Cols {
			v := batch.AllocVec(l.Cols[j].Kind, 1)
			v.Const = true
			view[j] = v
		}
		copy(view[nl:], r.Cols)
		var ls, rs []int32
		for i := spans[p].Lo; i < spans[p].Hi; i++ {
			for j := range l.Cols {
				setConst(&view[j], l.Cols[j], i)
			}
			// Right rows are decided in place over the right columns; only
			// the broadcast left constants change per left row.
			kept, err := c.FilterRange(view, e.binds, 0, rn, rs)
			if err != nil {
				return fmt.Errorf("engine: theta join: %w", err)
			}
			for range kept[len(rs):] {
				ls = append(ls, int32(i))
			}
			rs = kept
		}
		lIdx[p], rIdx[p] = ls, rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, len(spans)+1)
	for p := range lIdx {
		offs[p+1] = offs[p] + len(lIdx[p])
	}
	out := batch.AllocJoined(l, r, cols, lsch, offs[len(spans)])
	err = e.forEach(len(spans), l.Len()*max(1, rn), func(p int) error {
		gatherConcat(l, r, lIdx[p], rIdx[p], out, offs[p])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// setConst points the broadcast vec at src's element i.
func setConst(dst *expr.Vec, src expr.Vec, i int) {
	switch src.Kind {
	case relation.KindInt:
		dst.I[0] = src.I[i]
	case relation.KindFloat:
		dst.F[0] = src.F[i]
	default:
		dst.S[0] = src.S[i]
	}
}

// execUnionB merges two samples of the same expression, deduplicating by
// lineage in the same l-then-r first-seen order as the reference Union —
// but on a pooled open-addressing grouper keyed by lineage hashes with
// slot-wise ID compare, instead of materializing an encoded string key per
// row.
func execUnionB(l, r *batch.Batch) (*batch.Batch, error) {
	ra, err := alignToB(r, l)
	if err != nil {
		return nil, fmt.Errorf("engine: union: %w", err)
	}
	g := getGrouper(l.Len() + ra.Len())
	defer putGrouper(g)
	// Group representatives are row indices; every group created before
	// lGroups exists represents an l row, everything after an ra row (the
	// two phases below never interleave). Lineage equality is exact ID
	// equality, so grouping by (hash, full compare) reproduces the
	// string-key groups exactly.
	reps := getI32(l.Len() + ra.Len())[:0]
	defer func() { putI32(reps) }()
	lGroups := int32(-1) // -1: phase 1 in progress, every group is l-side
	var cand int
	candLin := l.Lin
	eq := func(id int32) bool {
		repLin := l.Lin
		if lGroups >= 0 && id >= lGroups {
			repLin = ra.Lin
		}
		return linEqualAt(candLin, cand, repLin, int(reps[id]))
	}
	for i := 0; i < l.Len(); i++ {
		cand = i
		if _, fresh := g.Get(linHashAt(l.Lin, i), eq); fresh {
			reps = append(reps, int32(i))
		}
	}
	lGroups = int32(g.Len())
	extra := getI32(ra.Len())[:0]
	defer func() { putI32(extra) }()
	candLin = ra.Lin
	for i := 0; i < ra.Len(); i++ {
		cand = i
		if _, fresh := g.Get(linHashAt(ra.Lin, i), eq); fresh {
			reps = append(reps, int32(i))
			extra = append(extra, int32(i))
		}
	}
	out := batch.AllocMerged(l, ra, l.Len()+len(extra))
	for j := range l.Cols {
		copyVec(l.Cols[j], out.Cols[j], 0)
	}
	for s := range l.Lin {
		copy(out.Lin[s], l.Lin[s])
	}
	ra.GatherInto(out, l.Len(), extra)
	return out, nil
}

// execIntersectB keeps l-rows whose lineage also appears in r (compaction,
// Prop. 8), counterpart of the reference Intersect — membership tested on
// lineage hashes with full ID compare, no per-row key strings.
func execIntersectB(l, r *batch.Batch) (*batch.Batch, error) {
	ra, err := alignToB(r, l)
	if err != nil {
		return nil, fmt.Errorf("engine: intersect: %w", err)
	}
	g := getGrouper(ra.Len())
	defer putGrouper(g)
	reps := getI32(ra.Len())[:0]
	defer func() { putI32(reps) }()
	var cand int
	candLin := ra.Lin
	eq := func(id int32) bool { return linEqualAt(candLin, cand, ra.Lin, int(reps[id])) }
	for i := 0; i < ra.Len(); i++ {
		cand = i
		if _, fresh := g.Get(linHashAt(ra.Lin, i), eq); fresh {
			reps = append(reps, int32(i))
		}
	}
	sel := getI32(l.Len())[:0]
	defer func() { putI32(sel) }()
	candLin = l.Lin
	for i := 0; i < l.Len(); i++ {
		cand = i
		if g.Find(linHashAt(l.Lin, i), eq) >= 0 {
			sel = append(sel, int32(i))
		}
	}
	return l.Gather(sel), nil
}

// alignToB re-expresses r against l's schemas, permuting lineage slot
// columns when the schemas list the same relations in different orders —
// a slice-header permutation, no per-row work.
func alignToB(r, l *batch.Batch) (*batch.Batch, error) {
	if !r.Schema.Equal(l.Schema) {
		return nil, fmt.Errorf("column schemas differ")
	}
	if r.LSch.Equal(l.LSch) {
		return r, nil
	}
	if !r.LSch.SameRelations(l.LSch) {
		return nil, fmt.Errorf("lineage schemas cover different relations: %v vs %v", r.LSch.Names(), l.LSch.Names())
	}
	slot, err := r.LSch.Translate(l.LSch)
	if err != nil {
		return nil, err
	}
	lin := make([][]lineage.TupleID, len(r.Lin))
	for j := range r.Lin {
		lin[slot[j]] = r.Lin[j]
	}
	return batch.New(l.Schema, l.LSch, r.Cols, lin, r.Len())
}

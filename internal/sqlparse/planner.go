package sqlparse

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
)

// Catalog resolves table names to base relations.
type Catalog interface {
	Table(name string) (*relation.Relation, bool)
}

// PlannerOptions tunes lowering.
type PlannerOptions struct {
	// SystemBlockSize is the page size SYSTEM sampling uses (tuples per
	// block). Zero selects the default of 32.
	SystemBlockSize int
	// Seed drives REPEATABLE lineage-hash sampling when a TABLESAMPLE has
	// no explicit REPEATABLE clause of its own. (Plain Bernoulli/WOR decide
	// under the executor's per-node sub-seed instead.)
	Seed uint64
}

// Planned is the lowered query.
type Planned struct {
	// Root is the plan producing the pre-aggregation tuples. Selection and
	// join predicates may still contain expr.ParamRef placeholders — the
	// engine binds their values at evaluation time — but every sampling
	// method is concrete.
	Root plan.Node
	// Aggregates are the SELECT items to evaluate over Root's output, with
	// placeholders substituted (the estimator sees only literals).
	Aggregates []Aggregate
	// GroupBy is the grouping column ("" for a global aggregate). Each
	// group aggregate is SUM-like, so the GUS analysis applies per group
	// with the same top operator.
	GroupBy string
	// Explain marks an EXPLAIN ANALYZE statement: execute normally, and
	// return the annotated execution trace with the result.
	Explain bool
}

// Template is a compiled-once query plan skeleton: tables resolved, join
// order fixed, predicates classified and placed — everything that does not
// depend on the execution's placeholder values or options. Sampling
// methods stay deferred (they depend on bound values, the seed and the
// SYSTEM block size) and are resolved by Bind, which is cheap enough to
// run per execution. A Template is immutable and safe for concurrent Bind
// calls.
type Template struct {
	root       plan.Node // Sample nodes hold *deferredMethod
	aggregates []Aggregate
	groupBy    string
	nParams    int
	explain    bool
}

// NumParams reports how many positional placeholders the statement binds.
func (t *Template) NumParams() int { return t.nParams }

// GroupBy reports the statement's grouping column ("" when absent).
func (t *Template) GroupBy() string { return t.groupBy }

// deferredMethod is the placeholder sampling method inside a Template: it
// records the TABLESAMPLE clause and is swapped for the concrete method by
// Bind. It never reaches analysis or execution.
type deferredMethod struct{ ref TableRef }

func (d *deferredMethod) Name() string        { return "tablesample(unbound)" }
func (d *deferredMethod) Relations() []string { return []string{d.ref.EffectiveName()} }
func (d *deferredMethod) Params(sampling.Cardinality) (*core.Params, error) {
	return nil, fmt.Errorf("sampling: parameters of %s are unbound (execute the prepared statement instead of its template)", d.ref.EffectiveName())
}
func (d *deferredMethod) Apply(*ops.Rows, uint64) (*ops.Rows, error) {
	return nil, fmt.Errorf("sampling: %s is unbound (execute the prepared statement instead of its template)", d.ref.EffectiveName())
}

// PlanQuery lowers a parsed query onto a plan tree: scans with sampling at
// the leaves, single-table selections above their table, equi-joins chained
// greedily along WHERE join predicates, remaining predicates as top
// selections. It is exactly PlanTemplate followed by a parameter-free
// Bind, so literal SQL and a prepared statement bound to the same values
// produce identical plans.
func PlanQuery(q *Query, cat Catalog, opts PlannerOptions) (*Planned, error) {
	t, err := PlanTemplate(q, cat)
	if err != nil {
		return nil, err
	}
	return t.Bind(nil, opts)
}

// PlanTemplate performs the per-query-shape half of planning (see
// Template). The expensive work — catalog resolution, predicate
// classification, join chaining, validation — happens here, once per
// Prepare; Bind then stamps out executable plans.
func PlanTemplate(q *Query, cat Catalog) (*Template, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("sql: query has no tables")
	}
	if len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("sql: query has no aggregates")
	}
	// Placeholder indices must be contiguous: a gap means a parameter the
	// caller can bind but nothing reads, which is always a typo.
	used := make([]bool, q.NumParams)
	mark := func(i int) {
		if i >= 0 && i < len(used) {
			used[i] = true
		}
	}
	for _, a := range q.Aggregates {
		if a.Arg != nil {
			expr.WalkParams(a.Arg, mark)
		}
	}
	if q.Where != nil {
		expr.WalkParams(q.Where, mark)
	}
	for _, tr := range q.Tables {
		if tr.ValueParam >= 0 {
			mark(tr.ValueParam)
		}
	}
	for i, u := range used {
		if !u {
			return nil, fmt.Errorf("sql: placeholder ?%d is never used (parameters must be numbered contiguously from 1)", i+1)
		}
	}

	// Resolve tables and build the column → table index.
	type tableState struct {
		ref   TableRef
		rel   *relation.Relation
		node  plan.Node
		preds []expr.Expr // single-table selections
	}
	states := make([]*tableState, len(q.Tables))
	colOwner := map[string]int{}
	seenNames := map[string]bool{}
	for i, tr := range q.Tables {
		rel, ok := cat.Table(tr.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", tr.Name)
		}
		name := tr.EffectiveName()
		if seenNames[name] {
			return nil, fmt.Errorf("sql: table name %q used twice; self-joins are outside the GUS algebra (§9) — alias one occurrence and note the analysis is unsupported", name)
		}
		seenNames[name] = true
		states[i] = &tableState{ref: tr, rel: rel}
		for _, c := range rel.Schema().Columns() {
			if other, dup := colOwner[c.Name]; dup && other != i {
				return nil, fmt.Errorf("sql: column %q appears in multiple tables; qualified disambiguation is not supported — rename columns", c.Name)
			}
			colOwner[c.Name] = i
		}
	}

	// Classify WHERE conjuncts.
	type joinEdge struct {
		a, b       int
		aCol, bCol string
		used       bool
	}
	var edges []joinEdge
	var postPreds []expr.Expr
	if q.Where != nil {
		for _, c := range expr.Conjuncts(q.Where) {
			tables := map[int]bool{}
			for _, col := range expr.Columns(c) {
				o, found := colOwner[col]
				if !found {
					return nil, fmt.Errorf("sql: unknown column %q in WHERE", col)
				}
				tables[o] = true
			}
			if l, r, isEq := expr.EquiJoinCols(c); isEq {
				lo, ro := colOwner[l], colOwner[r]
				if lo != ro {
					edges = append(edges, joinEdge{a: lo, b: ro, aCol: l, bCol: r})
					continue
				}
			}
			switch len(tables) {
			case 0:
				postPreds = append(postPreds, c) // constant predicate
			case 1:
				//gus:nondet-ok single-entry map: the loop extracts the only key
				for o := range tables {
					states[o].preds = append(states[o].preds, c)
				}
			default:
				postPreds = append(postPreds, c)
			}
		}
	}

	// Build per-table leaf plans: scan → sample → selections. Sampling
	// methods stay deferred — Bind constructs the concrete method per
	// execution from the clause, the bound values and the options.
	for _, st := range states {
		st.node = &plan.Scan{Rel: st.rel, Alias: st.ref.EffectiveName()}
		if st.ref.Kind != SampleNone {
			st.node = &plan.Sample{Input: st.node, Method: &deferredMethod{ref: st.ref}}
		}
		for _, p := range st.preds {
			st.node = &plan.Select{Input: st.node, Pred: p}
		}
	}

	// Greedy join chaining along the edges.
	joined := map[int]bool{0: true}
	root := states[0].node
	remaining := len(states) - 1
	for remaining > 0 {
		progressed := false
		for e := range edges {
			edge := &edges[e]
			if edge.used {
				continue
			}
			var inCol, outCol string
			var outIdx int
			switch {
			case joined[edge.a] && joined[edge.b]:
				// Redundant equality within the joined set → post filter.
				edge.used = true
				postPreds = append(postPreds, expr.Eq(expr.Col(edge.aCol), expr.Col(edge.bCol)))
				continue
			case joined[edge.a]:
				inCol, outCol, outIdx = edge.aCol, edge.bCol, edge.b
			case joined[edge.b]:
				inCol, outCol, outIdx = edge.bCol, edge.aCol, edge.a
			default:
				continue
			}
			edge.used = true
			root = &plan.Join{Left: root, Right: states[outIdx].node, LeftCol: inCol, RightCol: outCol}
			joined[outIdx] = true
			remaining--
			progressed = true
		}
		if !progressed {
			// No connecting edge: cross-product with the next unjoined table.
			for i, st := range states {
				if !joined[i] {
					root = &plan.Theta{Left: root, Right: st.node, Pred: expr.Int(1)}
					joined[i] = true
					remaining--
					progressed = true
					break
				}
			}
			if !progressed {
				return nil, fmt.Errorf("sql: internal: join chaining stalled")
			}
		}
	}
	for _, p := range postPreds {
		root = &plan.Select{Input: root, Pred: p}
	}

	// Validate aggregate arguments against the joined column space.
	for _, a := range q.Aggregates {
		if a.Arg == nil {
			continue
		}
		for _, col := range expr.Columns(a.Arg) {
			if _, ok := colOwner[col]; !ok {
				return nil, fmt.Errorf("sql: unknown column %q in %s", col, a.Kind)
			}
		}
	}
	if q.GroupBy != "" {
		if _, ok := colOwner[q.GroupBy]; !ok {
			return nil, fmt.Errorf("sql: unknown GROUP BY column %q", q.GroupBy)
		}
	}
	return &Template{root: root, aggregates: q.Aggregates, groupBy: q.GroupBy, nParams: q.NumParams, explain: q.Explain}, nil
}

// Explain reports whether the statement is an EXPLAIN ANALYZE.
func (t *Template) Explain() bool { return t.explain }

// Bind stamps an executable plan out of the template: every deferred
// TABLESAMPLE method becomes concrete (its parameter taken from vals when
// the clause used a placeholder, with the GUS translation re-derived from
// the bound value downstream by plan.Analyze), and aggregate arguments get
// their placeholders substituted. Selection and join predicates keep their
// ParamRef nodes — the engine injects vals into the compiled kernels at
// evaluation time — so Bind allocates only the handful of plan nodes on
// the path from a Sample leaf to the root.
func (t *Template) Bind(vals []relation.Value, opts PlannerOptions) (*Planned, error) {
	if len(vals) != t.nParams {
		return nil, fmt.Errorf("sql: statement wants %d parameter(s), got %d", t.nParams, len(vals))
	}
	blockSize := opts.SystemBlockSize
	if blockSize <= 0 {
		blockSize = 32
	}
	root, err := bindNode(t.root, vals, blockSize, opts.Seed)
	if err != nil {
		return nil, err
	}
	aggs := make([]Aggregate, len(t.aggregates))
	copy(aggs, t.aggregates)
	for i := range aggs {
		if aggs[i].Arg == nil {
			continue
		}
		bound, err := expr.BindParams(aggs[i].Arg, vals)
		if err != nil {
			return nil, fmt.Errorf("sql: %s: %w", aggs[i].Kind, err)
		}
		aggs[i].Arg = bound
	}
	return &Planned{Root: root, Aggregates: aggs, GroupBy: t.groupBy, Explain: t.explain}, nil
}

// bindNode makes every deferred sampling method concrete. plan.Rewrite
// clones only the spine above each bound Sample and shares every
// untouched subtree; the clone preserves the plan shape exactly, so the
// engine's pre-order node numbering — and with it every per-(seed, node,
// partition) sampling decision — matches a plan built directly from
// literal SQL.
func bindNode(n plan.Node, vals []relation.Value, blockSize int, seed uint64) (plan.Node, error) {
	var err error
	root := plan.Rewrite(n, func(n plan.Node) plan.Node {
		s, ok := n.(*plan.Sample)
		if !ok || err != nil {
			return n
		}
		d, ok := s.Method.(*deferredMethod)
		if !ok {
			return n
		}
		m, merr := boundMethodFor(d.ref, vals, blockSize, seed)
		if merr != nil {
			err = merr
			return n
		}
		return &plan.Sample{Input: s.Input, Method: m}
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}

// boundMethodFor resolves a TABLESAMPLE clause's numeric argument (literal
// or bound placeholder) and constructs the concrete sampling method,
// applying exactly the validation the parser applies to literals.
func boundMethodFor(tr TableRef, vals []relation.Value, blockSize int, seed uint64) (sampling.Method, error) {
	if tr.ValueParam >= 0 {
		if tr.ValueParam >= len(vals) {
			return nil, fmt.Errorf("sql: TABLESAMPLE parameter ?%d is unbound (%d bound)", tr.ValueParam+1, len(vals))
		}
		v := vals[tr.ValueParam]
		if !v.IsNumeric() {
			return nil, fmt.Errorf("sql: TABLESAMPLE parameter ?%d must be numeric, got %s %q", tr.ValueParam+1, v.Kind(), v.AsString())
		}
		f, err := v.AsFloat()
		if err != nil {
			return nil, fmt.Errorf("sql: TABLESAMPLE parameter ?%d: %w", tr.ValueParam+1, err)
		}
		switch tr.Kind {
		case SampleRows:
			if f != float64(int64(f)) || f < 0 {
				return nil, fmt.Errorf("sql: ROWS count must be a non-negative integer, got %v (parameter ?%d)", f, tr.ValueParam+1)
			}
		case SamplePercent, SampleSystem:
			if f < 0 || f > 100 {
				return nil, fmt.Errorf("sql: sampling percentage %v outside [0,100] (parameter ?%d)", f, tr.ValueParam+1)
			}
		}
		tr.Value = f
	}
	return methodFor(tr, blockSize, seed)
}

// methodFor translates a TABLESAMPLE clause into a sampling method.
func methodFor(tr TableRef, blockSize int, seed uint64) (sampling.Method, error) {
	name := tr.EffectiveName()
	switch tr.Kind {
	case SampleNone:
		return nil, nil
	case SamplePercent:
		p := tr.Value / 100
		if tr.Repeatable >= 0 {
			return sampling.NewLineageHash(uint64(tr.Repeatable)^seed, map[string]float64{name: p})
		}
		return sampling.NewBernoulli(name, p)
	case SampleRows:
		if tr.Repeatable >= 0 {
			return nil, fmt.Errorf("sql: REPEATABLE is not supported for ROWS sampling")
		}
		return sampling.NewWOR(name, int(tr.Value))
	case SampleSystem:
		if tr.Repeatable >= 0 {
			return nil, fmt.Errorf("sql: REPEATABLE is not supported for SYSTEM sampling")
		}
		return sampling.NewBlock(name, blockSize, tr.Value/100)
	default:
		return nil, fmt.Errorf("sql: unknown sampling kind %d", tr.Kind)
	}
}

package gus

// The query executor. Every entry point — Query/Exact, Stmt.Query/Exact,
// Robustness, and both forms of QueryProgressive — runs the same four
// stages in the same order: resolve (the statement and its trace), bind
// (a fresh plan, rewritten, pruned and SOA-analyzed to one top GUS),
// execute (one engine run and a Theorem-1 estimate per item, or the wave
// loop) and meter (the in-flight gauge, latency and outcome counters).
// query drives the one-shot form, runProgressive the streaming one.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/online"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// stmtRef names what an entry point executes: SQL text, resolved through
// the plan cache, or a *Stmt the caller holds with its bound values. err
// carries an argument error, which fails the query like any stage error.
type stmtRef struct {
	sql  string
	st   *Stmt
	vals []relation.Value
	err  error
}

// query is the one-shot executor. The catalog read-lock is held from bind
// through execute, so any number of queries run concurrently while
// catalog writes wait.
func (db *DB) query(ctx context.Context, ref stmtRef, o queryOptions) (*Result, error) {
	st, err := db.resolve(ref, &o)
	if err != nil {
		return nil, db.fail(&o, err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	b, err := db.bind(st, &o)
	if err != nil {
		return nil, db.fail(&o, err)
	}
	var res *Result
	err = db.meter(&o, func() (t tally, err error) {
		res, t, err = executeOnce(o.engine(ctx), b, &o)
		return t, err
	})
	if err != nil {
		return nil, err
	}
	res.ExplainText = finishTrace(&o, b.Root, st.tmpl.Explain())
	return res, nil
}

// resolve is the first stage: it finds the statement and records it, with
// the bound values, in o. An EXPLAIN ANALYZE statement gets a trace if
// none rides along; a traced cache lookup records the parse+plan span.
func (db *DB) resolve(ref stmtRef, o *queryOptions) (*Stmt, error) {
	start, st, hit := time.Now(), ref.st, false
	if st == nil {
		var err error
		if st, hit, err = db.prepareCached(ref.sql); err != nil {
			return nil, err
		}
	}
	o.st, o.args = st, ref.vals
	if ref.err != nil {
		return nil, ref.err
	}
	if o.trace == nil && st.tmpl.Explain() {
		o.trace = &obs.Trace{}
	}
	if o.trace != nil && ref.st == nil {
		recordPlanSpan(o.trace, time.Since(start), hit)
	}
	return st, nil
}

// bound is a statement bound for one execution: the plan the engine runs,
// its SOA analysis (the top GUS Theorem 1 prices) and the SELECT items.
// cards maps each scan's lineage name to its LOGICAL cardinality — what
// WOR variance prediction needs; a synopsis-served scan reads fewer rows
// but records its source table's size — and scanned totals the rows the
// scans read.
type bound struct {
	*sqlparse.Planned
	analysis *plan.Analysis
	items    []online.Item
	cards    map[string]int
	scanned  int
}

// bind is the second stage; db.mu must be read-held. Every rewrite applies
// to the freshly bound plan, never the cached template, so creating or
// dropping a synopsis needs no cache invalidation.
func (db *DB) bind(st *Stmt, o *queryOptions) (bound, error) {
	planned, err := st.tmpl.Bind(o.args, sqlparse.PlannerOptions{SystemBlockSize: o.systemBlockSize, Seed: o.seed})
	if err != nil {
		return bound{}, err
	}
	switch {
	case o.exact:
		planned.Root = plan.StripSampling(planned.Root)
	case o.survival > 0:
		if planned.Root, err = declareSample(planned.Root, o.survival); err != nil {
			return bound{}, err
		}
	default:
		planned.Root = db.applySynopses(planned.Root, o)
	}
	// After the rewrite, so a substituted synopsis scan is narrowed the
	// same way its base table would be.
	planned.Root = pruneScanColumns(planned.Root, neededColumns(planned))
	items, err := selectItems(planned.Aggregates)
	if err != nil {
		return bound{}, err
	}
	compact := o.trace.Begin("gus-compact", "", -1)
	analysis, err := plan.Analyze(planned.Root)
	if err != nil {
		return bound{}, err
	}
	if o.trace != nil {
		o.trace.End(compact, -1, -1)
		o.trace.SetSpan(compact, func(s *obs.Span) { s.Label = fmt.Sprintf("%d rewrite steps", len(analysis.Steps)) })
	}
	b := bound{Planned: planned, analysis: analysis, items: items, cards: map[string]int{}}
	plan.Walk(b.Root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			b.cards[s.LineageName()] = s.Rel.Len()
			if s.FullRows > 0 {
				b.cards[s.LineageName()] = s.FullRows
			}
			b.scanned += s.Rel.Len()
		}
	})
	return b, nil
}

// declareSample is Robustness's rewrite (§8, "database as a sample"): the
// query must not sample, and a GUS quasi-operator above every scan declares
// the stored table a Bernoulli(survival) sample of a complete database.
func declareSample(root plan.Node, survival float64) (plan.Node, error) {
	var err error
	root = plan.Rewrite(root, func(n plan.Node) plan.Node {
		switch t := n.(type) {
		case *plan.Sample:
			if err == nil {
				err = fmt.Errorf("gus: robustness analysis requires a query without TABLESAMPLE (table %q has one)", t.Method.Relations()[0])
			}
		case *plan.Scan:
			g, gerr := core.Bernoulli(t.LineageName(), survival)
			if gerr == nil {
				return &plan.GUS{Input: t, G: g}
			}
			err = gerr
		}
		return n
	})
	return root, err
}

// selectItems turns the SELECT list into the items every execute path
// estimates: COUNT as SUM(1) (§1), AVG as the delta-method ratio
// SUM(f)/SUM(1), QUANTILE(...) as its aggregate plus the level.
func selectItems(aggs []sqlparse.Aggregate) ([]online.Item, error) {
	items := make([]online.Item, 0, len(aggs))
	for i, agg := range aggs {
		it := online.Item{
			Name:        agg.Alias,
			Kind:        agg.Kind.String(),
			HasQuantile: agg.HasQuantile,
			Quantile:    agg.Quantile,
		}
		if it.Name == "" {
			it.Name = fmt.Sprintf("col%d", i+1)
		}
		switch agg.Kind {
		case sqlparse.AggSum, sqlparse.AggCount:
			it.F = agg.Arg
			if it.F == nil || agg.Kind == sqlparse.AggCount {
				it.F = expr.Int(1)
			}
		case sqlparse.AggAvg:
			if agg.Arg == nil {
				return nil, fmt.Errorf("gus: AVG(*) is not valid SQL")
			}
			it.F, it.Ratio, it.Den = agg.Arg, true, expr.Int(1)
		default:
			return nil, fmt.Errorf("gus: unsupported aggregate %v", agg.Kind)
		}
		if agg.HasQuantile {
			it.Kind = fmt.Sprintf("QUANTILE(%s,%g)", agg.Kind, agg.Quantile)
		}
		items = append(items, it)
	}
	return items, nil
}

// engine builds the query's engine: worker width, cancellation, bound
// values, the statement's kernel snapshot and the trace.
func (o *queryOptions) engine(ctx context.Context) *engine.Engine {
	return engine.New(engine.Config{Workers: o.workers, Context: ctx, Params: o.args, Prepared: o.st.prep, Trace: o.trace, DisableZoneSkip: o.noZoneSkip})
}

// executeOnce is the one-shot execute stage: one engine run, then one
// estimate per SELECT item — per GROUP BY bucket when grouped.
func executeOnce(eng *engine.Engine, b bound, o *queryOptions) (*Result, tally, error) {
	sample, err := eng.ExecuteBatch(b.Root, o.seed)
	if err != nil {
		return nil, tally{}, err
	}
	// The sample batch is dead once every item over it has been estimated
	// (the Result keeps only scalars and strings), so recycle its buffers.
	// Release no-ops on batches that alias relation snapshots (bare scans).
	defer sample.Release()
	res := &Result{
		SampleRows:  sample.Len(),
		PlanText:    plan.Format(b.Root),
		TraceText:   b.analysis.FormatTrace(),
		GUSText:     b.analysis.G.String(),
		scannedRows: b.scanned,
	}
	t := tally{scanned: b.scanned, sampled: sample.Len(), skipped: eng.PartitionsSkipped()}
	values := func(s *batch.Batch) ([]Value, error) {
		vs := make([]Value, 0, len(b.items))
		for _, it := range b.items {
			vu, yhat, err := estimateItem(b.analysis.G, s, it, o)
			if err != nil {
				return nil, err
			}
			vs = append(vs, Value{
				Name: vu.Name, Kind: vu.Kind,
				Value: vu.Value, Estimate: vu.Estimate, StdErr: vu.StdErr,
				CILow: vu.CILow, CIHigh: vu.CIHigh,
				Approximate: vu.Approximate,
				Reliability: vu.Reliability, VarianceRSE: vu.VarianceRSE,
				schema: b.analysis.G.Schema(), yhat: yhat, cards: b.cards,
			})
		}
		return vs, nil
	}
	if b.GroupBy == "" {
		res.Values, err = values(sample)
		return res, t, err
	}
	gsp := o.trace.Begin("group", b.GroupBy, -1)
	keys, parts, err := partitionBatchByColumn(sample, b.GroupBy)
	if err != nil {
		return nil, t, err
	}
	o.trace.End(gsp, int64(sample.Len()), int64(len(keys)))
	// Each bucket is a pooled gather of the sample, dead once its values
	// are computed (Value keeps scalars and its own ŷ), so it goes back to
	// the pools before the next bucket allocates.
	for gi, key := range keys {
		vs, err := values(parts[gi])
		if err != nil {
			for _, p := range parts[gi:] {
				p.Release()
			}
			return nil, t, fmt.Errorf("gus: group %q: %w", key, err)
		}
		parts[gi].Release()
		res.Groups = append(res.Groups, Group{Key: key, Values: vs})
	}
	return res, t, nil
}

// finalUpdate answers a plan the wave executor cannot split (joins,
// unions, WOR) with the one-shot run as a single final update, priced by
// online.Price like every wave — the one-shot Values' exact intervals.
func finalUpdate(eng *engine.Engine, b bound, o *queryOptions) (online.Update, error) {
	res, t, err := executeOnce(eng, b, o)
	if err != nil {
		return online.Update{}, err
	}
	u := online.Update{FractionScanned: 1, RowsScanned: t.scanned, SampleRows: t.sampled, Final: true, Done: true, Reason: online.ReasonComplete}
	for i, v := range res.Values {
		vu := online.Price(b.items[i], v.Estimate, v.StdErr, o.level, o.ciMethod())
		vu.Reliability, vu.VarianceRSE = v.Reliability, v.VarianceRSE
		u.Values = append(u.Values, vu)
	}
	return u, nil
}

// estimateItem is the SBox (§6) over one sample for one item — Theorem 1
// for SUM and COUNT, the delta-method ratio for AVG (§9) — priced by
// online.Price like every wave. yhat is the unbiased ŷ_S moment vector
// PredictVariance reuses (nil for ratios).
func estimateItem(g *core.Params, s *batch.Batch, it online.Item, o *queryOptions) (vu online.ValueUpdate, yhat []float64, err error) {
	eopts := estimator.Options{
		MaxVarianceRows: o.maxVarianceRows,
		Seed:            o.seed + 0x5b0c,
		Workers:         o.workers,
		Trace:           o.trace,
		// Variance diagnostics ride along with tracing (never changing
		// results either way — see the bit-identity tests).
		Diagnostics: o.trace != nil,
	}
	var est, sd float64
	var diag *estimator.Diagnostics
	if it.Ratio {
		r, err := estimator.RatioBatch(g, s, it.F, it.Den, eopts)
		if err != nil {
			return vu, nil, fmt.Errorf("gus: AVG: %w", err)
		}
		est, sd, diag = r.Estimate, r.StdDev(), r.Diag
	} else {
		r, err := estimator.EstimateBatch(g, s, it.F, eopts)
		if err != nil {
			return vu, nil, err
		}
		est, sd, diag, yhat = r.Estimate, r.StdDev(), r.Diag, r.YHat
	}
	vu = online.Price(it, est, sd, o.level, o.ciMethod())
	if diag != nil {
		vu.Reliability, vu.VarianceRSE = diag.Grade, diag.VarianceRSE
	}
	return vu, yhat, nil
}

// tally is what a finished execute stage reports to meter.
type tally struct {
	scanned, sampled int
	skipped          int64
	// reason is a progressive stream's stop reason ("" for one-shot).
	reason string
}

// meter is the fourth stage: it brackets execute with the in-flight gauge
// and latency histograms, then books the outcome. Every update on the
// success path is an atomic on a pre-resolved slot, so the untraced path
// stays allocation-free.
func (db *DB) meter(o *queryOptions, execute func() (tally, error)) error {
	m := db.metrics
	m.inFlight.Add(1)
	start := time.Now()
	t, err := execute()
	secs := time.Since(start).Seconds()
	m.inFlight.Add(-1)
	m.querySecs.Observe(secs)
	o.st.sm.seconds.Observe(secs)
	if err != nil {
		return db.fail(o, err)
	}
	m.queriesOK.Inc()
	o.st.sm.queries.Inc()
	m.rowsScanned.Add(uint64(t.scanned))
	m.sampleRows.Add(uint64(t.sampled))
	m.partsSkipped.Add(uint64(t.skipped))
	if t.scanned > 0 {
		m.sampleFrac.Observe(float64(t.sampled) / float64(t.scanned))
	}
	if t.reason != "" {
		m.stopReasons.With(t.reason).Inc()
	}
	return nil
}

// fail books a failed query — whichever stage failed — on the DB-wide
// error counter and, once the statement is known, its shape's.
func (db *DB) fail(o *queryOptions, err error) error {
	db.metrics.queriesErr.Inc()
	if o.st != nil {
		o.st.sm.errors.Inc()
	}
	return err
}

// partitionBatchByColumn splits the sample into GROUP BY buckets — keys[i]
// is the rendered group value, parts[i] that group's rows — ordered by the
// grouping column's value (numerically for Int/Float columns — so keys come
// back 1, 2, 10 rather than "1", "10", "2" — lexicographically for
// strings). Restricting the sample to one group is exactly evaluating the
// SUM-like aggregate f·1{group=k} over the whole sample, so each bucket
// inherits the plan's top GUS unchanged.
//
// Rows group on an open-addressing grouper keyed directly by the typed
// column — dictionary codes for encoded strings, int64 values, float bit
// patterns (all NaNs one group) — with a full typed compare on hash
// collisions. Group identity is the value's AsString rendering (injective
// per kind except for NaN, which it collapses, as the bit-pattern identity
// does too), and the key string is rendered once per GROUP, not once per
// row.
func partitionBatchByColumn(b *batch.Batch, col string) (keys []string, parts []*batch.Batch, err error) {
	idx, ok := b.Schema.Index(col)
	if !ok {
		return nil, nil, fmt.Errorf("gus: unknown GROUP BY column %q", col)
	}
	v := b.Cols[idx]
	g := hashtab.NewGrouper(64)
	var reps []int32   // first row of each group, first-seen order
	var sels [][]int32 // rows per group
	cand := 0
	eq := func(id int32) bool { return groupEqualAt(v, cand, int(reps[id])) }
	for i := 0; i < b.Len(); i++ {
		cand = i
		id, fresh := g.Get(groupHashAt(v, i), eq)
		if fresh {
			reps = append(reps, int32(i))
			sels = append(sels, nil)
		}
		sels[id] = append(sels[id], int32(i))
	}
	// Sort first-seen group order by column value (Value.Compare
	// semantics).
	order := make([]int, len(reps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool {
		va, vc := b.ValueAt(int(reps[order[a]]), idx), b.ValueAt(int(reps[order[c]]), idx)
		cmp, err := va.Compare(vc)
		if err != nil {
			// Mixed-kind keys cannot arise from a typed column; fall back
			// to the textual order for safety.
			return va.AsString() < vc.AsString()
		}
		return cmp < 0
	})
	for _, id := range order {
		keys = append(keys, b.ValueAt(int(reps[id]), idx).AsString())
		parts = append(parts, b.Gather(sels[id]))
	}
	return keys, parts, nil
}

// groupHashAt hashes row i of a column under GROUP BY identity: int64
// value, float bit pattern (NaNs collapsed), or the string (by dictionary
// lookup when encoded). Distinct from join-key hashing — FloatKey's
// int-normalization must NOT apply, because AsString keeps 42 (int) and
// "-0"/"0" style distinctions that grouping preserves.
func groupHashAt(v expr.Vec, i int) uint64 {
	switch v.Kind {
	case relation.KindInt:
		return hashtab.Mix(uint64(v.I[i]))
	case relation.KindFloat:
		f := v.F[i]
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return hashtab.Mix(math.Float64bits(f))
	default:
		if v.Codes != nil {
			return v.Dict.Hashes[v.Codes[i]]
		}
		return hashtab.String(v.S[i])
	}
}

// groupEqualAt is groupHashAt's identity: the full compare deciding groups.
func groupEqualAt(v expr.Vec, i, j int) bool {
	switch v.Kind {
	case relation.KindInt:
		return v.I[i] == v.I[j]
	case relation.KindFloat:
		a, b := v.F[i], v.F[j]
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Float64bits(a) == math.Float64bits(b)
	default:
		if v.Codes != nil {
			return v.Codes[i] == v.Codes[j]
		}
		return v.S[i] == v.S[j]
	}
}

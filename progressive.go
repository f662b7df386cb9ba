// Online aggregation: the public progressive-query API over the
// internal/online wave executor. QueryProgressive streams a refining
// sequence of estimates — one per partition wave — whose confidence
// intervals tighten as more of the data is scanned, and stops early on a
// target accuracy, a deadline, a scan-fraction budget, or context
// cancellation. Run to completion, the final update is bit-identical to
// Query with the same options.
package gus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/online"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// UpdateValue is one SELECT item's state after a wave, mirroring Value.
type UpdateValue struct {
	Name, Kind string
	// Value is what the query returns: the estimate, or the requested
	// quantile of the estimator distribution for QUANTILE items.
	Value float64
	// Estimate, StdErr and CILow/CIHigh price the aggregate under the
	// prefix-sampling model; on the Final update they are exactly Query's.
	Estimate, StdErr float64
	CILow, CIHigh    float64
	// Approximate marks delta-method (AVG) items.
	Approximate bool
	// RelHalfWidth is the CI half-width divided by |Estimate| — what
	// WithTargetRelativeCI tests. +Inf while the estimate is zero or not
	// yet defined.
	RelHalfWidth float64
	// Reliability grades the wave's CI trustworthiness (A–D) and
	// VarianceRSE reports the variance estimate's own relative standard
	// error, mirroring Value; early waves typically grade worse and
	// improve as groups accumulate. Unlike one-shot queries, waves always
	// carry diagnostics — the streaming accumulator makes them cheap.
	Reliability string
	VarianceRSE float64
}

// Update is one progressive refinement of a QueryProgressive stream. The
// top-level estimator fields mirror Values[0] for the common
// single-aggregate query.
type Update struct {
	// Wave numbers the update, from 0.
	Wave int
	// FractionScanned is how much of the scanned relation has been read;
	// RowsScanned the same in rows; SampleRows how many tuples the
	// sampled plan has produced so far.
	FractionScanned float64
	RowsScanned     int
	SampleRows      int
	// Final marks a complete scan (estimates bit-identical to Query).
	// Done marks the stream's last update; Reason names the stop
	// condition: "complete", "target-ci", "max-fraction" or "deadline".
	Final  bool
	Done   bool
	Reason string

	Estimate, StdErr float64
	CILow, CIHigh    float64
	Values           []UpdateValue

	// ExplainText is the rendered execution trace, set on the Done update
	// of an EXPLAIN ANALYZE statement only (empty otherwise).
	ExplainText string
}

// QueryProgressive executes the query as online aggregation: it scans the
// plan wave by wave, and after every wave sends an Update with the current
// Theorem-1 estimate, its variance-derived confidence interval, and the
// scanned fraction. The stream stops at the first of: every partition
// scanned (Final), WithTargetRelativeCI met, WithMaxFraction reached,
// WithDeadline passed, or ctx canceled. The channel closes when the
// stream ends; the returned wait function stops any remaining scan work,
// blocks until the stream has shut down, and reports the terminal error
// (nil for every clean stop — including stopping via wait itself —
// ctx.Err() after the caller's context was canceled).
//
// Always call wait, even after abandoning the channel early: a consumer
// that simply stops receiving leaves the producer goroutine parked until
// wait (or a ctx cancel) releases it. Waves stream against an immutable
// snapshot taken at call time, so catalog writes proceed while a stream
// is live; the snapshot is the data the answer describes.
//
// Determinism contract: for any (query, seed, workers), a stream run to
// completion ends in a Final update whose estimates, standard errors and
// intervals are bit-identical to Query's — progressive execution changes
// when answers appear, never what they converge to. Intermediate updates
// model the scanned prefix as a uniform sample of the relation (sound
// when physical row order is uncorrelated with the aggregate; shuffle
// data that arrived sorted).
//
// Single-table plans (any TABLESAMPLE except WOR, selections,
// projections) stream genuinely — early stopping saves the unscanned
// remainder. Plans the wave executor cannot split (joins, unions, WOR
// sampling) run to completion and emit their answer as a single Final
// update. GROUP BY is not yet supported progressively. §7 variance
// sub-sampling (WithVarianceSubsampling) is ignored: waves keep exact
// moment accumulators instead.
func (db *DB) QueryProgressive(ctx context.Context, sql string, opts ...Option) (<-chan Update, func() error) {
	o := db.buildOptions(opts)
	return db.progressiveStream(ctx, o, func() (*Stmt, []relation.Value, error) {
		ppStart := time.Now()
		st, hit, err := db.prepareCached(sql)
		if err != nil {
			return nil, nil, err
		}
		if o.trace != nil {
			recordPlanSpan(o.trace, time.Since(ppStart), hit)
		}
		return st, nil, nil
	})
}

// QueryProgressive streams the prepared statement as online aggregation
// with the given bindings, mirroring db.QueryProgressive (see there for
// the full contract). args follows Stmt.Query: positional parameter
// values, with per-call Options mixed in freely.
func (s *Stmt) QueryProgressive(ctx context.Context, args ...any) (<-chan Update, func() error) {
	vals, opts, err := splitArgs(args)
	o := s.db.buildOptions(opts)
	return s.db.progressiveStream(ctx, o, func() (*Stmt, []relation.Value, error) {
		return s, vals, err
	})
}

// progressiveStream owns the producer goroutine and the wait contract
// shared by the SQL and prepared-statement entry points; prepare defers
// statement resolution into the stream so its errors surface through wait.
func (db *DB) progressiveStream(ctx context.Context, o queryOptions, prepare func() (*Stmt, []relation.Value, error)) (<-chan Update, func() error) {
	ch := make(chan Update)
	done := make(chan struct{})
	sctx, cancel := context.WithCancel(ctx)
	var runErr error
	go func() {
		defer close(done)
		defer close(ch)
		defer cancel()
		st, vals, err := prepare()
		if err != nil {
			runErr = err
			return
		}
		runErr = db.runProgressive(sctx, st, vals, o, ch)
	}()
	wait := func() error {
		cancel()
		<-done
		if runErr != nil && ctx.Err() == nil && errors.Is(runErr, context.Canceled) {
			// The stream was stopped through wait, not by the caller's
			// context: an orderly stop, not an error.
			return nil
		}
		return runErr
	}
	return ch, wait
}

// runProgressive parses, plans and drives the wave loop. The catalog
// read-lock is held only through planning and wave preparation: a
// prepared wave execution aliases the relation's immutable columnar
// snapshot, so the stream itself runs lock-free and catalog writes are
// never blocked behind a long-lived stream. (The one-shot fallback keeps
// the lock for its run, exactly like Query.)
func (db *DB) runProgressive(ctx context.Context, st *Stmt, vals []relation.Value, o queryOptions, ch chan<- Update) error {
	o.args, o.prep = vals, st.prep
	o.sm, o.sql, o.shape = st.sm, st.sql, st.shape
	explain := st.tmpl.Explain()
	if o.trace == nil && explain {
		o.trace = &obs.Trace{}
	}
	db.mu.RLock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			db.mu.RUnlock()
		}
	}
	defer unlock()
	planned, err := st.tmpl.Bind(vals, sqlparse.PlannerOptions{
		SystemBlockSize: o.systemBlockSize,
		Seed:            o.seed,
	})
	if err != nil {
		return err
	}
	if planned.GroupBy != "" {
		return fmt.Errorf("gus: progressive execution does not support GROUP BY (run Query instead): %w", ErrUnsupported)
	}
	// Progressive streams benefit twice from a synopsis rewrite: waves
	// cover the (much smaller) synopsis, so each refinement step costs
	// proportionally less I/O for the same statistical claim.
	planned.Root = db.applySynopses(planned.Root, &o)
	planned.Root = pruneScanColumns(planned.Root, neededColumns(planned))
	analysis, err := plan.Analyze(planned.Root)
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{Workers: o.workers, Context: ctx, Params: o.args, Prepared: o.prep, Trace: o.trace, DisableZoneSkip: o.noZoneSkip})
	waves, err := eng.PrepareWaves(planned.Root, o.seed)
	if err != nil {
		return err
	}
	if waves == nil {
		err := db.progressiveFallback(ctx, planned, o, explain, ch)
		if err == nil {
			db.metrics.stopReasons.With(online.ReasonComplete).Inc()
		}
		return err
	}
	items, err := progressiveItems(planned.Aggregates)
	if err != nil {
		return err
	}
	method := estimator.Normal
	if o.interval == ChebyshevInterval {
		method = estimator.Chebyshev
	}
	ex := &online.Executor{
		G:     analysis.G,
		Waves: waves,
		Items: items,
		Trace: o.trace,
		Cfg: online.Config{
			WaveRows:    o.waveRows,
			TargetRelCI: o.targetRelCI,
			Deadline:    o.deadline,
			MaxFraction: o.maxFraction,
			Level:       o.level,
			Method:      method,
		},
	}
	// Wave batches alias the scan's immutable snapshot from here on;
	// catalog writes may proceed while the stream runs.
	unlock()
	m := db.metrics
	m.inFlight.Add(1)
	start := time.Now()
	canceled := false
	var last online.Update
	err = ex.Run(ctx, func(u online.Update) bool {
		last = u
		out := fromOnlineUpdate(u)
		if u.Done && o.trace != nil {
			// The stream ends with this update: stamp the annotated plan
			// tree now so a caller-held trace (and EXPLAIN ANALYZE output)
			// is complete when the channel closes.
			finishTrace(o.trace, planned.Root, o.sql, o.shape)
			if explain {
				out.ExplainText = o.trace.Format()
			}
		}
		select {
		case ch <- out:
			return true
		case <-ctx.Done():
			canceled = true
			return false
		}
	})
	secs := time.Since(start).Seconds()
	m.inFlight.Add(-1)
	m.querySecs.Observe(secs)
	if o.sm != nil {
		o.sm.seconds.Observe(secs)
	}
	if err != nil || canceled {
		m.queriesErr.Inc()
		if o.sm != nil {
			o.sm.errors.Inc()
		}
		if err != nil {
			return err
		}
		return ctx.Err()
	}
	m.queriesOK.Inc()
	if o.sm != nil {
		o.sm.queries.Inc()
	}
	m.rowsScanned.Add(uint64(last.RowsScanned))
	m.sampleRows.Add(uint64(last.SampleRows))
	m.partsSkipped.Add(uint64(eng.PartitionsSkipped()))
	if last.RowsScanned > 0 {
		m.sampleFrac.Observe(float64(last.SampleRows) / float64(last.RowsScanned))
	}
	if last.Reason != "" {
		m.stopReasons.With(last.Reason).Inc()
	}
	return nil
}

// progressiveFallback serves plan shapes the wave executor cannot split
// (joins, unions, WOR): the query runs once — still cancellable via the
// engine's context — and its answer streams as a single Final update.
func (db *DB) progressiveFallback(ctx context.Context, planned *sqlparse.Planned, o queryOptions, explain bool, ch chan<- Update) error {
	res, err := db.run(ctx, planned, o)
	if err != nil {
		return err
	}
	u := Update{
		FractionScanned: 1,
		RowsScanned:     res.scannedRows,
		SampleRows:      res.SampleRows,
		Final:           true,
		Done:            true,
		Reason:          online.ReasonComplete,
	}
	for _, v := range res.Values {
		half := (v.CIHigh - v.CILow) / 2
		rel := math.Inf(1)
		if v.Estimate != 0 && !math.IsNaN(v.Estimate) {
			rel = half / math.Abs(v.Estimate)
		}
		u.Values = append(u.Values, UpdateValue{
			Name: v.Name, Kind: v.Kind,
			Value: v.Value, Estimate: v.Estimate, StdErr: v.StdErr,
			CILow: v.CILow, CIHigh: v.CIHigh,
			Approximate:  v.Approximate,
			RelHalfWidth: rel,
			Reliability:  v.Reliability,
			VarianceRSE:  v.VarianceRSE,
		})
	}
	if len(u.Values) > 0 {
		u.Estimate, u.StdErr = u.Values[0].Estimate, u.Values[0].StdErr
		u.CILow, u.CIHigh = u.Values[0].CILow, u.Values[0].CIHigh
	}
	if explain {
		u.ExplainText = o.trace.Format()
	}
	select {
	case ch <- u:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// progressiveItems translates planned SELECT aggregates into online items,
// mirroring evalAggregate's naming and COUNT/AVG handling.
func progressiveItems(aggs []sqlparse.Aggregate) ([]online.Item, error) {
	items := make([]online.Item, 0, len(aggs))
	for i, agg := range aggs {
		name := agg.Alias
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		it := online.Item{
			Name:        name,
			Kind:        agg.Kind.String(),
			HasQuantile: agg.HasQuantile,
			Quantile:    agg.Quantile,
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

func fromOnlineUpdate(u online.Update) Update {
	out := Update{
		Wave:            u.Wave,
		FractionScanned: u.FractionScanned,
		RowsScanned:     u.RowsScanned,
		SampleRows:      u.SampleRows,
		Final:           u.Final,
		Done:            u.Done,
		Reason:          u.Reason,
		Estimate:        u.Estimate,
		StdErr:          u.StdErr,
		CILow:           u.CILow,
		CIHigh:          u.CIHigh,
	}
	for _, v := range u.Values {
		out.Values = append(out.Values, UpdateValue{
			Name: v.Name, Kind: v.Kind,
			Value: v.Value, Estimate: v.Estimate, StdErr: v.StdErr,
			CILow: v.CILow, CIHigh: v.CIHigh,
			Approximate:  v.Approximate,
			RelHalfWidth: v.RelHalfWidth,
			Reliability:  v.Reliability,
			VarianceRSE:  v.VarianceRSE,
		})
	}
	return out
}

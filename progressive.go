// Online aggregation: the public progressive-query API over the
// internal/online wave executor. QueryProgressive streams a refining
// sequence of estimates — one per partition wave — whose confidence
// intervals tighten as more of the data is scanned, and stops early on a
// target accuracy, a deadline, a scan-fraction budget, or context
// cancellation. Run to completion, the final update is bit-identical to
// Query with the same options.
package gus

// Layering: both QueryProgressive forms run the executor's stages
// (exec.go) on a producer goroutine — resolve and bind exactly as Query
// does, then an execute stage that drives internal/online's wave loop, or
// for plans waves cannot split runs the one-shot engine pass and reports
// it as a single final update, all inside one meter stage. Waves and
// one-shot answers are priced by the same online.Price.

import (
	"context"
	"errors"
	"fmt"

	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/online"
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
	return db.stream(ctx, stmtRef{sql: sql}, db.buildOptions(opts))
}

// QueryProgressive streams the prepared statement as online aggregation
// with the given bindings, mirroring db.QueryProgressive (see there for
// the full contract). args follows Stmt.Query: positional parameter
// values, with per-call Options mixed in freely.
func (s *Stmt) QueryProgressive(ctx context.Context, args ...any) (<-chan Update, func() error) {
	ref, o := s.call(args)
	return s.db.stream(ctx, ref, o)
}

// stream owns the producer goroutine and the wait contract shared by the
// SQL and prepared-statement entry points. Every stage runs on the
// goroutine, so resolve and bind errors surface through wait.
func (db *DB) stream(ctx context.Context, ref stmtRef, o queryOptions) (<-chan Update, func() error) {
	ch := make(chan Update)
	done := make(chan struct{})
	sctx, cancel := context.WithCancel(ctx)
	var runErr error
	go func() {
		defer close(done)
		defer close(ch)
		defer cancel()
		runErr = db.runProgressive(sctx, ref, o, ch)
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

// runProgressive is the streaming executor. The catalog read-lock is held
// through bind and wave preparation only: a prepared wave execution
// aliases the relation's immutable columnar snapshot, so the stream itself
// runs lock-free and catalog writes are never blocked behind a long-lived
// stream. (A plan that runs once keeps the lock until its answer is
// computed, exactly like Query.)
func (db *DB) runProgressive(ctx context.Context, ref stmtRef, o queryOptions, ch chan<- Update) error {
	st, err := db.resolve(ref, &o)
	if err == nil && st.tmpl.GroupBy() != "" {
		err = fmt.Errorf("gus: progressive execution does not support GROUP BY (run Query instead): %w", ErrUnsupported)
	}
	if err != nil {
		return db.fail(&o, err)
	}
	// Progressive streams benefit twice from bind's synopsis rewrite: waves
	// cover the (much smaller) synopsis, so each refinement step costs
	// proportionally less I/O for the same statistical claim.
	db.mu.RLock()
	b, err := db.bind(st, &o)
	eng := o.engine(ctx)
	var waves *engine.WaveExec
	if err == nil {
		waves, err = eng.PrepareWaves(b.Root, o.seed)
	}
	if err != nil {
		db.mu.RUnlock()
		return db.fail(&o, err)
	}
	var last online.Update
	canceled := false
	emit := func(u online.Update) bool {
		last = u
		out := toUpdate(u)
		if u.Done {
			// The stream ends with this update: stamp the annotated plan
			// tree now so a caller-held trace (and EXPLAIN ANALYZE output)
			// is complete when the channel closes.
			out.ExplainText = finishTrace(&o, b.Root, st.tmpl.Explain())
		}
		select {
		case ch <- out:
			return true
		case <-ctx.Done():
			canceled = true
			return false
		}
	}
	return db.meter(&o, func() (tally, error) {
		var err error
		if waves == nil {
			var u online.Update
			u, err = finalUpdate(eng, b, &o)
			db.mu.RUnlock()
			if err == nil {
				emit(u)
			}
		} else {
			// Wave batches alias the scan's immutable snapshot; catalog
			// writes may proceed while the stream runs.
			db.mu.RUnlock()
			err = (&online.Executor{
				G:     b.analysis.G,
				Waves: waves,
				Items: b.items,
				Trace: o.trace,
				Cfg: online.Config{
					WaveRows:    o.waveRows,
					TargetRelCI: o.targetRelCI,
					Deadline:    o.deadline,
					MaxFraction: o.maxFraction,
					Level:       o.level,
					Method:      o.ciMethod(),
				},
			}).Run(ctx, emit)
		}
		if err == nil && canceled {
			err = ctx.Err()
		}
		return tally{scanned: last.RowsScanned, sampled: last.SampleRows, skipped: eng.PartitionsSkipped(), reason: last.Reason}, err
	})
}

// toUpdate renders an online update in the public shape. The top-level
// estimator fields mirror Values[0]; online.ValueUpdate has exactly
// UpdateValue's fields, so each value is a plain conversion.
func toUpdate(u online.Update) Update {
	out := Update{
		Wave:            u.Wave,
		FractionScanned: u.FractionScanned,
		RowsScanned:     u.RowsScanned,
		SampleRows:      u.SampleRows,
		Final:           u.Final,
		Done:            u.Done,
		Reason:          u.Reason,
		Values:          make([]UpdateValue, len(u.Values)),
	}
	for i, v := range u.Values {
		out.Values[i] = UpdateValue(v)
	}
	if len(out.Values) > 0 {
		top := out.Values[0]
		out.Estimate, out.StdErr, out.CILow, out.CIHigh = top.Estimate, top.StdErr, top.CILow, top.CIHigh
	}
	return out
}

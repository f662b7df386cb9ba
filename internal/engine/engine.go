// Package engine is the query executor: a columnar, morsel-style runtime
// over typed batch.Batch columns that splits every operator's input into
// fixed-size row partitions (ops.Partitions), processes partitions on a
// worker pool, and merges per-partition outputs in partition order.
//
// Determinism contract: for a given (plan, seed), the engine produces
// bit-identical batches at ANY worker count. Three rules enforce it:
//
//  1. partition boundaries depend only on the data and a fixed partition
//     size, never on the worker count;
//  2. every sampling decision is the method's keep rule
//     (sampling.RuleOf): a pure function of (query seed, plan node number,
//     input row index) or of the row's lineage — never of the partition,
//     so a sample does not depend on the partition size either;
//  3. per-partition outputs are concatenated in partition index order by
//     the coordinator after all workers finish.
//
// GUS quasi-operators remain pass-throughs at execution time (§4.2 of the
// paper); the engine changes how plans are *executed*, not what they mean.
// The serial plan.Execute (over internal/ops and sampling.Method.Apply) is
// the reference executor tests compare against: it decides by the same
// keep rules under the same sub-seeds (plan.NumberNodes, plan.SubSeed), so
// for any plan, sampled or not, the engine's output is row-for-row
// identical to it. It never runs on a query path.
package engine

import (
	"context"
	"runtime"
	"sync/atomic"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
)

// Config tunes an Engine. The zero value is ready to use.
type Config struct {
	// Workers is the worker-pool width. Zero or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// PartitionSize is the morsel size in rows. Zero or negative selects
	// ops.DefaultPartitionSize. It must be held constant across runs whose
	// results are to be compared bit-for-bit.
	PartitionSize int
	// SerialCutoff is the input size (rows) at or below which an operator
	// runs inline on the calling goroutine — tiny inputs are not worth the
	// goroutine fan-out. Zero selects 2×PartitionSize. The serial path is
	// the same partitioned code run on one goroutine, so the cutoff never
	// changes results.
	SerialCutoff int
	// Context, when non-nil, cancels execution cooperatively: every
	// partitioned operator checks it between partitions and aborts with
	// the context's error instead of scanning on for a caller that is
	// gone. Cancellation never yields partial results — Execute either
	// returns complete rows or an error.
	Context context.Context
	// Params are this execution's positional placeholder values: every
	// expr.ParamRef in the plan evaluates to Params[Index], injected into
	// the compiled kernels as broadcast constants — never by recompiling.
	// Nil for plans without placeholders.
	Params []relation.Value
	// Prepared, when non-nil, is the statement's compile-once kernel
	// snapshot: expression compilation routes through it and is shared by
	// every execution of the statement (see prepared.go). Nil compiles per
	// execution, the one-shot behavior.
	Prepared *Prepared
	// Trace, when non-nil, collects per-stage execution spans (wall time,
	// rows in/out, partitions, sampling fractions). Nil — the default —
	// costs one pointer test per stage.
	Trace *obs.Trace
	// DisableZoneSkip turns off zone-map partition skipping in the fused
	// kernel. Skipping never changes results (that is test-enforced);
	// the switch exists for bit-identity tests, benchmarks and debugging.
	DisableZoneSkip bool
}

// Engine executes query plans in parallel. It is stateless between calls
// and safe for concurrent use by multiple goroutines.
type Engine struct {
	workers  int
	partSize int
	cutoff   int
	ctx      context.Context
	params   []relation.Value
	binds    []expr.Vec      // ConstVec per param, built once per execution
	kinds    []relation.Kind // bound kinds, part of the kernel-cache key
	prep     *Prepared
	trace    *obs.Trace
	noSkip   bool
	skipped  atomic.Int64 // partitions zone-skipped across this engine's executions
}

// New builds an Engine from cfg, applying defaults.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	ps := cfg.PartitionSize
	if ps <= 0 {
		ps = ops.DefaultPartitionSize
	}
	cut := cfg.SerialCutoff
	if cut <= 0 {
		cut = 2 * ps
	}
	e := &Engine{workers: w, partSize: ps, cutoff: cut, ctx: cfg.Context, params: cfg.Params, prep: cfg.Prepared, trace: cfg.Trace, noSkip: cfg.DisableZoneSkip}
	if len(cfg.Params) > 0 {
		e.binds = make([]expr.Vec, len(cfg.Params))
		e.kinds = make([]relation.Kind, len(cfg.Params))
		for i, v := range cfg.Params {
			e.binds[i] = expr.ConstVec(v)
			e.kinds[i] = v.Kind()
		}
	}
	return e
}

// compileVec compiles an expression for vectorized evaluation, honoring
// the execution's parameter kinds and, when present, the statement's
// prepared kernel snapshot (compile once, execute many).
func (e *Engine) compileVec(x expr.Expr, schema *relation.Schema) (*expr.VecCompiled, error) {
	if e.prep != nil {
		return e.prep.compile(x, schema, e.kinds)
	}
	return expr.CompileVecBind(x, schema, e.kinds)
}

// Workers reports the configured worker-pool width.
func (e *Engine) Workers() int { return e.workers }

// PartitionsSkipped reports how many input partitions zone maps allowed
// the fused kernel to skip, accumulated across this engine's executions
// (one-shot queries build one engine per run; progressive waves keep one
// engine per stream, so the count accumulates over waves).
func (e *Engine) PartitionsSkipped() int64 { return e.skipped.Load() }

// forEach runs fn(p) for every partition index p ∈ [0, parts), fanning out
// over the worker pool when the total row count justifies it (the serial
// fallback for tiny inputs — same partitioned code, one goroutine). fn
// must only write state owned by partition p. The engine's context (if
// any) cancels the loop between partitions.
func (e *Engine) forEach(parts, rows int, fn func(p int) error) error {
	workers := e.workers
	if rows <= e.cutoff {
		workers = 1
	}
	return ops.ForEachPartCtx(e.ctx, workers, parts, fn)
}

// both executes two independent subplans concurrently (plan-level
// parallelism for join/union/intersect inputs). The left plan runs on the
// calling goroutine and a left error wins.
func (e *Engine) both(l, r plan.Node, seed uint64, ids map[plan.Node]uint64) (lb, rb *batch.Batch, err error) {
	return both(e, l, r, func(n plan.Node) (*batch.Batch, error) { return e.execB(n, seed, ids) })
}

// both runs exec on two independent subplans, concurrently when the engine
// has more than one worker. Both results are returned even on error, so a
// caller can release whichever side succeeded.
func both[T any](e *Engine, l, r plan.Node, exec func(plan.Node) (T, error)) (lv, rv T, err error) {
	if e.workers <= 1 {
		if lv, err = exec(l); err != nil {
			return lv, rv, err
		}
		rv, err = exec(r)
		return lv, rv, err
	}
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rv, rerr = exec(r)
	}()
	lv, err = exec(l)
	<-done
	if err == nil {
		err = rerr
	}
	return lv, rv, err
}

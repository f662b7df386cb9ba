// Package estimator implements the SBox (§6): the statistical component
// that turns (top GUS parameters, sample tuples with lineage, per-tuple
// aggregate values) into an unbiased estimate, a variance estimate and
// confidence intervals.
//
// The three SBox tasks of §6 map to:
//
//  1. the top GUS coefficients — produced by plan.Analyze and passed in;
//  2. estimating the data moments y_S from the sample (§6.3), optionally
//     from a lineage-hash sub-sample of the sample (§7);
//  3. the final estimate, variance and confidence intervals (§6.4).
//
// # One moment kernel
//
// Task 2 is 2ⁿ GROUP BY queries: Y_S groups the sample by the lineage
// projected onto S and sums the squared group totals. One kernel computes
// them for every entry point: maskAccum (stream.go), one mask's group
// state. The streaming Accum folds each completed span into it as waves
// arrive; the one-shot groupMoments (parallel.go) — behind EstimateBatch,
// RatioBatch, Estimate, FromLineage — folds the whole sample into it over
// zero-copy span views. The engine has usually done the grouping already,
// by the order it emits rows in, so the kernel makes one pass over each
// lineage slot's ID column to see whether it is strictly increasing,
// non-decreasing or neither, then takes each mask S the cheapest way its
// member slots allow:
//
//	(a) singletons — some member slot is strictly increasing, so no two
//	    rows share a projected key: Y_S = Σ f² in row order. No table.
//	(b) runs — every member slot is non-decreasing, so the projected key
//	    is too and each group is a run of adjacent rows.
//	(c) hashed — otherwise: each span is grouped into a shard on an
//	    open-addressing grouper, and the shards merge in span order into
//	    the mask's group totals. The one-shot path builds its shards on the
//	    worker pool; the stream builds each as its span completes.
//
// When each triggers: a fused scan → sample → select pipeline emits rows in
// scan order, so a scanned relation's slot is strictly increasing —
// Bernoulli, WOR (emitted in input order) and lineage-hash samples
// included; SYSTEM sampling rewrites lineage to block IDs, which repeat
// within a block and only ever grow: runs. A hash join emits probe rows in
// probe order, each with its matches in build order, so the probe side's
// slot keeps its order (strict when a probe row matches at most one build
// row, else runs) and the build side's slot follows the join key: a
// foreign-key parent probed by its key-ordered child comes out in runs.
// Unions and intersections concatenate or reorder sources, a build side
// ordered differently from the probe key is arbitrary, and a caller handing
// FromLineage rows in any order it likes is just that: (c). GROUP BY
// buckets are subsequences of the sample and inherit its order.
//
// The property is observed on the rows at hand, never asserted by a
// caller: Options.DistinctLineage, the old plan-derived hint, is ignored.
// An Accum observes it chunk by chunk; should a later chunk break a mask's
// order, the mask is rebuilt once, in its new mode, from the sample rows
// the Accum retains for as long as any mask is order-aware.
//
// Why the floats cannot differ: all three ways produce the same groups in
// the same first-seen order with the same accumulation order — a group's
// partial sum within one PartitionSize span is its values added in row
// order from zero; its total is its span partials added in span order (so
// a run that crosses a span boundary associates as a hashed group does);
// the moment adds the squared totals in first-seen order. In case (a)
// every partial is one value and that whole sequence collapses to
// acc += f·f per row. The variance diagnostics' (groups, Σt², Σt⁴) are
// further sums over the same span-wise group totals, read off the folded
// full mask (maskAccum.stats) by both paths. order_test.go holds the three
// ways, and the string-keyed implementation they replaced, to bit-equality
// on every shape that selects or switches between them.
package estimator

import (
	"fmt"
	"math"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
)

// CIMethod selects how confidence intervals are derived from (μ̂, σ̂).
type CIMethod int

const (
	// Normal uses the optimistic normal approximation (§6.4): a 95% CI is
	// μ̂ ± 1.96σ̂.
	Normal CIMethod = iota
	// Chebyshev uses the distribution-free Chebyshev bound (§6.4): a 95%
	// CI is μ̂ ± 4.47σ̂ — "correct for any distribution, at the expense of a
	// factor of 2 in width".
	Chebyshev
)

// String names the method.
func (m CIMethod) String() string {
	switch m {
	case Normal:
		return "normal"
	case Chebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("CIMethod(%d)", int(m))
	}
}

// HalfWidth is the half-width of a two-sided interval at the given level
// around an estimate with standard deviation sd. Every interval the system
// reports — one-shot SUM and AVG, every progressive wave — is priced here.
func (m CIMethod) HalfWidth(level, sd float64) float64 {
	if m == Chebyshev {
		return stats.ChebyshevHalfWidth(level, sd)
	}
	return stats.NormalHalfWidth(level, sd)
}

// Quantile is the q-quantile of an estimator distribution with mean est
// and standard deviation sd — the QUANTILE(SUM(...), q) of the paper's §1
// view. Normal uses the normal approximation, Chebyshev the
// distribution-free one-sided Cantelli bound (valid for any distribution,
// wider), so QUANTILE answers stay consistent with the interval choice.
func (m CIMethod) Quantile(est, sd, q float64) float64 {
	if m == Chebyshev {
		return est + stats.CantelliQuantile(q)*sd
	}
	return est + stats.NormalQuantile(q)*sd
}

// Options tunes the SBox.
type Options struct {
	// MaxVarianceRows, when positive, activates §7 sub-sampling: if the
	// sample holds more rows than this, the y_S moments are estimated from
	// a lineage-hash Bernoulli sub-sample targeting about this many rows
	// (the paper suggests ~10000 suffices). The estimate itself always
	// uses the full sample.
	MaxVarianceRows int
	// Seed drives the sub-sampling pseudo-random function.
	Seed uint64
	// Workers is how many goroutines accumulate the Theorem-1 sums (Σf
	// and the Y_S group moments) in partition-sharded accumulators merged
	// in partition order; ≤ 1 runs them on the calling goroutine. Results
	// are bit-identical for every value — the shards are per-partition,
	// not per-worker, and partitioning depends only on the data.
	Workers int
	// PartitionSize overrides the accumulator morsel size (default
	// ops.DefaultPartitionSize). Comparable runs must share it.
	PartitionSize int
	// Trace, when non-nil, records an "estimate" span per SBox run (wall
	// time and the number of sample tuples fed in). Tracing never touches
	// the estimate math — results are bit-identical either way.
	Trace *obs.Trace
	// DistinctLineage is accepted and ignored. It used to assert that no
	// lineage ID repeats within a slot so single-slot moments could skip
	// hash grouping; the moment kernel now observes that (and more) on the
	// sample itself — see the package comment.
	DistinctLineage bool
	// Diagnostics, when true, additionally reports the reliability of
	// the variance estimate itself (Result.Diag), from group statistics
	// the moment kernel gathers alongside the full-mask moment. Like
	// tracing, it never perturbs the estimate — results are bit-identical
	// either way.
	Diagnostics bool
}

// Result carries the SBox outputs.
type Result struct {
	// Estimate is the unbiased Theorem 1 estimator X = Σf / a.
	Estimate float64
	// Variance is the estimated σ²(X), clamped at zero.
	Variance float64
	// RawVariance is the unclamped estimate; small negatives are ordinary
	// sampling noise around a near-zero true variance.
	RawVariance float64
	// Clamped reports whether RawVariance was negative.
	Clamped bool
	// SampleRows is the number of sample tuples fed to the estimate.
	SampleRows int
	// VarianceRows is the number of tuples the y_S estimation used
	// (smaller than SampleRows when §7 sub-sampling was active).
	VarianceRows int
	// Subsampled reports whether §7 sub-sampling was used.
	Subsampled bool
	// Y holds the raw sample moments Y_S (dense, index = lineage.Set).
	Y []float64
	// YHat holds the unbiased estimates Ŷ_S of the data moments y_S.
	YHat []float64
	// Diag reports variance-estimate reliability (nil unless
	// Options.Diagnostics was set).
	Diag *Diagnostics
}

// StdDev returns σ̂.
func (r *Result) StdDev() float64 { return math.Sqrt(r.Variance) }

// CI returns a two-sided confidence interval at the given level.
func (r *Result) CI(level float64, method CIMethod) (lo, hi float64) {
	half := method.HalfWidth(level, r.StdDev())
	return r.Estimate - half, r.Estimate + half
}

// Quantile returns the q-quantile of the estimator distribution under the
// normal approximation (see CIMethod.Quantile).
func (r *Result) Quantile(q float64) float64 {
	return Normal.Quantile(r.Estimate, r.StdDev(), q)
}

// QuantileWith returns the q-quantile under the given interval method (see
// CIMethod.Quantile).
func (r *Result) QuantileWith(q float64, method CIMethod) float64 {
	return method.Quantile(r.Estimate, r.StdDev(), q)
}

// Estimate runs the SBox over the reference executor's row-major sample —
// the adapter tests, plan.EstimateCardinalities and the paper experiments
// reach it through; queries use EstimateBatch. g must be the plan's top GUS
// (from plan.Analyze); rows' lineage schema must match g's — which
// plan.Execute guarantees for the same plan.
func Estimate(g *core.Params, rows *ops.Rows, f expr.Expr, opts Options) (*Result, error) {
	fs, _, err := ops.SumF(rows, f)
	if err != nil {
		return nil, err
	}
	if !rows.LSch.Equal(g.Schema()) {
		return nil, fmt.Errorf("estimator: sample lineage schema %v does not match GUS schema %v",
			rows.LSch.Names(), g.Schema().Names())
	}
	return fromSource(g, rowColumns(rows), fs, opts)
}

// Ratio is RatioBatch over the reference executor's row-major sample.
func Ratio(g *core.Params, rows *ops.Rows, num, den expr.Expr, opts Options) (*RatioResult, error) {
	nfs, _, err := ops.SumF(rows, num)
	if err != nil {
		return nil, err
	}
	dfs, _, err := ops.SumF(rows, den)
	if err != nil {
		return nil, err
	}
	if !rows.LSch.Equal(g.Schema()) {
		return nil, fmt.Errorf("estimator: sample lineage schema %v does not match GUS schema %v",
			rows.LSch.Names(), g.Schema().Names())
	}
	return ratioSrc(g, rowColumns(rows), nfs, dfs, opts)
}

// FromLineage is the core SBox entry point: it needs only the lineage and
// the aggregate value of each sample tuple (§6.2's minimal interface).
func FromLineage(g *core.Params, lins []lineage.Vector, fs []float64, opts Options) (*Result, error) {
	if len(lins) != len(fs) {
		return nil, fmt.Errorf("estimator: %d lineage vectors for %d aggregate values", len(lins), len(fs))
	}
	n := g.N()
	for i, l := range lins {
		if len(l) != n {
			return nil, fmt.Errorf("estimator: lineage vector %d has %d slots, GUS schema has %d", i, len(l), n)
		}
	}
	return fromSource(g, vectorColumns(n, lins), fs, opts)
}

// columnsOf transposes row-major lineage — vec(i) is sample tuple i's
// vector — into the per-slot ID columns (the batch.Batch.Lin layout) the
// moment kernel runs over, so row and columnar samples take the same code
// path float for float.
func columnsOf(n, rows int, vec func(i int) lineage.Vector) [][]lineage.TupleID {
	cols := make([][]lineage.TupleID, n)
	for s := range cols {
		cols[s] = make([]lineage.TupleID, rows)
	}
	for i := 0; i < rows; i++ {
		for s, id := range vec(i)[:n] {
			cols[s][i] = id
		}
	}
	return cols
}

// vectorColumns is columnsOf over a slice of lineage vectors.
func vectorColumns(n int, lins []lineage.Vector) [][]lineage.TupleID {
	return columnsOf(n, len(lins), func(i int) lineage.Vector { return lins[i] })
}

// rowColumns is columnsOf over executed row-major sample rows.
func rowColumns(rows *ops.Rows) [][]lineage.TupleID {
	return columnsOf(rows.LSch.Len(), rows.Len(), func(i int) lineage.Vector { return rows.Data[i].Lin })
}

// fromSource is the SBox core behind FromLineage and EstimateBatch, over
// per-slot lineage columns.
func fromSource(g *core.Params, lin [][]lineage.TupleID, fs []float64, opts Options) (*Result, error) {
	// §7: optionally estimate the y_S moments from a sub-sample.
	varG, varLin, varFs, sub, err := maybeSubsample(g, lin, fs, opts)
	if err != nil {
		return nil, err
	}
	var stats *groupStats
	if opts.Diagnostics {
		stats = new(groupStats)
	}
	y := groupMoments(varG.Schema().Len(), varLin, varFs, nil, opts, stats)
	res, err := newResult(g, varG, totalOf(fs, opts), y, len(fs), len(varFs))
	if err != nil {
		return nil, err
	}
	res.Subsampled = sub
	if stats != nil {
		res.Diag = newDiagnostics(stats.groups, stats.sum2, stats.sum4, false, sub, res.Clamped)
	}
	return res, nil
}

// newResult prices Y_S moments by Theorem 1 — the one assembler behind
// every SUM-like answer, one-shot (fromSource) and streamed
// (EstimateFromMoments): the estimate of total (Σf over all sampleRows
// rows) under g, and the variance under g from y, the moments of the
// varianceRows rows drawn under gVar (g itself unless §7 sub-sampled
// them).
func newResult(g, gVar *core.Params, total float64, y []float64, sampleRows, varianceRows int) (*Result, error) {
	if g.A() == 0 {
		return nil, fmt.Errorf("estimator: null GUS (a=0) cannot be estimated")
	}
	yhat, err := UnbiasedY(gVar, y)
	if err != nil {
		return nil, err
	}
	raw, err := g.Variance(yhat)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Estimate:     g.Estimate(total),
		Variance:     raw,
		RawVariance:  raw,
		SampleRows:   sampleRows,
		VarianceRows: varianceRows,
		Y:            y,
		YHat:         yhat,
	}
	if raw < 0 {
		res.Variance, res.Clamped = 0, true
	}
	return res, nil
}

// maybeSubsample applies §7 lineage-hash sub-sampling when the sample
// exceeds opts.MaxVarianceRows, returning the GUS that governs the rows
// used for moment estimation (Prop. 8 compaction of g with the
// sub-sampler's multi-dimensional Bernoulli).
func maybeSubsample(g *core.Params, lin [][]lineage.TupleID, fs []float64, opts Options) (*core.Params, [][]lineage.TupleID, []float64, bool, error) {
	if opts.MaxVarianceRows <= 0 || len(fs) <= opts.MaxVarianceRows {
		return g, lin, fs, false, nil
	}
	n := g.N()
	// Uniform per-dimension rate whose product is the target row fraction.
	frac := float64(opts.MaxVarianceRows) / float64(len(fs))
	rate := math.Pow(frac, 1/float64(n))
	//gus:stringmap-ok once-per-query sampling-method spec keyed by relation name, not per-row state
	probs := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		probs[g.Schema().Name(i)] = rate
	}
	m, err := sampling.NewLineageHash(opts.Seed, probs)
	if err != nil {
		return nil, nil, nil, false, err
	}
	rule, err := sampling.RuleOf(m, g.Schema(), 0)
	if err != nil {
		return nil, nil, nil, false, err
	}
	keep := func(i int) bool {
		for j, slot := range rule.Slots {
			if !rule.KeepsID(j, lin[slot][i]) {
				return false
			}
		}
		return true
	}
	subLin := make([][]lineage.TupleID, n)
	var subFs []float64
	for i := range fs {
		if keep(i) {
			for slot := range subLin {
				subLin[slot] = append(subLin[slot], lin[slot][i])
			}
			subFs = append(subFs, fs[i])
		}
	}
	mp, err := m.Params(nil)
	if err != nil {
		return nil, nil, nil, false, err
	}
	aligned, err := mp.Align(g.Schema())
	if err != nil {
		return nil, nil, nil, false, err
	}
	gSub, err := core.Compact(g, aligned)
	if err != nil {
		return nil, nil, nil, false, err
	}
	return gSub, subLin, subFs, true, nil
}

// Moments computes the raw sample moments Y_S for every S ⊆ {1:n}:
// group the sample by the projection of lineage onto S, sum f within each
// group, and sum the squares of the group totals (§6.3's GROUP BY queries).
// Y_∅ degenerates to (Σf)². Group squares accumulate in first-seen order,
// so repeated calls return bit-identical floats.
func Moments(n int, lins []lineage.Vector, fs []float64) []float64 {
	return groupMoments(n, vectorColumns(n, lins), fs, nil, Options{}, nil)
}

// UnbiasedY turns raw sample moments Y_S into unbiased estimates Ŷ_S of
// the population moments y_S by the §6.3 recursion (largest S first):
//
//	Ŷ_S = (1/b_S)·[ Y_S − Σ_{V ⊆ Sᶜ, V≠∅} κ_{S,S∪V}·Ŷ_{S∪V} ]
//
// gVar must be the GUS that generated the rows the Y_S were computed from.
func UnbiasedY(gVar *core.Params, y []float64) ([]float64, error) {
	n := gVar.N()
	size := 1 << uint(n)
	if len(y) != size {
		return nil, fmt.Errorf("estimator: %d moments for a %d-relation GUS", len(y), n)
	}
	full := lineage.Full(n)
	yhat := make([]float64, size)
	// Process masks by decreasing population count.
	order := make([]lineage.Set, 0, size)
	for k := n; k >= 0; k-- {
		for m := 0; m < size; m++ {
			if lineage.Set(m).Len() == k {
				order = append(order, lineage.Set(m))
			}
		}
	}
	for _, s := range order {
		bs := gVar.B(s)
		if bs == 0 {
			return nil, fmt.Errorf("estimator: b_%s = 0; this sampling method cannot estimate y_%s (degenerate design, e.g. WOR of a single tuple)",
				gVar.Schema().SetString(s), gVar.Schema().SetString(s))
		}
		acc := y[s]
		comp := full.Diff(s)
		comp.Subsets(func(v lineage.Set) {
			if v.IsEmpty() {
				return
			}
			acc -= gVar.Kappa(s, s|v) * yhat[s|v]
		})
		yhat[s] = acc / bs
	}
	return yhat, nil
}

// PopulationMoments computes the exact data moments y_S over the FULL
// (unsampled) result of a query — ground truth for experiments. rows must
// come from executing the sampling-free plan.
func PopulationMoments(rows *ops.Rows, f expr.Expr) ([]float64, error) {
	fs, _, err := ops.SumF(rows, f)
	if err != nil {
		return nil, err
	}
	return groupMoments(rows.LSch.Len(), rowColumns(rows), fs, nil, Options{}, nil), nil
}

// ExactAnalysis computes the true aggregate value and the true estimator
// variance for a sampling design g over a population: the oracle that
// experiments compare the SBox against.
func ExactAnalysis(g *core.Params, population *ops.Rows, f expr.Expr) (truth, variance float64, err error) {
	if !population.LSch.SameRelations(g.Schema()) {
		return 0, 0, fmt.Errorf("estimator: population lineage %v does not match GUS schema %v",
			population.LSch.Names(), g.Schema().Names())
	}
	aligned := g
	if !population.LSch.Equal(g.Schema()) {
		if aligned, err = g.Align(population.LSch); err != nil {
			return 0, 0, err
		}
	}
	ys, err := PopulationMoments(population, f)
	if err != nil {
		return 0, 0, err
	}
	_, total, err := ops.SumF(population, f)
	if err != nil {
		return 0, 0, err
	}
	v, err := aligned.Variance(ys)
	if err != nil {
		return 0, 0, err
	}
	return total, v, nil
}

package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	gus "github.com/sampling-algebra/gus"
)

// driftTolerance bounds how far the staged pipeline's accounted time may
// sit from the real path's: beyond it the hand-assembled pipeline no
// longer mirrors gus.go and its per-layer numbers mean nothing.
const driftTolerance = 0.15

// minDriftSamples is how many replayed requests the drift check needs
// before its median means anything; shorter runs only warn.
const minDriftSamples = 20

// realRun executes one request the way gusserve does — PrepareCachedTrace,
// then Stmt.Query or Stmt.QueryProgressive with the request's bindings and
// seed — and flattens the answer. tr is nil for the untraced path.
func realRun(ctx context.Context, db *gus.DB, req request, tr *gus.Trace) ([]flatEstimate, error) {
	st, err := db.PrepareCachedTrace(req.SQL, tr)
	if err != nil {
		return nil, err
	}
	args := make([]any, 0, len(req.Args)+3)
	for _, a := range req.Args {
		args = append(args, a)
	}
	args = append(args, gus.WithSeed(req.Seed))
	if tr != nil {
		args = append(args, gus.WithTrace(tr))
	}
	if req.Stream {
		args = append(args, gus.WithTargetRelativeCI(progressiveTarget))
		ch, wait := st.QueryProgressive(ctx, args...)
		var last gus.Update
		waves := 0
		for u := range ch {
			last = u
			waves++
		}
		if err := wait(); err != nil {
			return nil, err
		}
		return []flatEstimate{{Est: last.Estimate, SD: last.StdErr, Lo: last.CILow, Hi: last.CIHigh,
			FractionScanned: last.FractionScanned, Waves: waves, StoppedForTarget: last.Reason == "target-ci"}}, nil
	}
	res, err := st.Query(ctx, args...)
	if err != nil {
		return nil, err
	}
	var out []flatEstimate
	for _, v := range res.Values {
		out = append(out, flatEstimate{Est: v.Estimate, SD: v.StdErr, Lo: v.CILow, Hi: v.CIHigh})
	}
	for _, g := range res.Groups {
		for _, v := range g.Values {
			out = append(out, flatEstimate{Group: g.Key, Est: v.Estimate, SD: v.StdErr, Lo: v.CILow, Hi: v.CIHigh})
		}
	}
	return out, nil
}

// identical reports the first difference between the real and the staged
// answer; every float must match bit for bit.
func identical(real, staged []flatEstimate) error {
	if len(real) != len(staged) {
		return fmt.Errorf("real path returned %d estimates, staged pipeline %d", len(real), len(staged))
	}
	for i, r := range real {
		s := staged[i]
		if r.Group != s.Group || !sameBits(r.Est, s.Est) || !sameBits(r.SD, s.SD) || !sameBits(r.Lo, s.Lo) || !sameBits(r.Hi, s.Hi) ||
			!sameBits(r.FractionScanned, s.FractionScanned) || r.Waves != s.Waves || r.StoppedForTarget != s.StoppedForTarget {
			return fmt.Errorf("estimate %d differs: real %+v, staged %+v", i, r, s)
		}
	}
	return nil
}

// replayed is what the harness measured around one request outside the
// staged spans.
type replayed struct {
	query, untraced, prepare time.Duration
	cacheHit                 bool
	mallocs, bytes           uint64
	fraction                 float64
	waves                    int
}

// replay is the traced phase: it opens the segment directory in-process,
// replays the first requests of the workload on one goroutine — through
// the real DB and through the staged pipeline — writes the spans to
// trace.<workload>.json and fills every per-layer metric.
func replay(ctx context.Context, cfg runConfig, dataDir string, gen func(int) request, sum summary, res *runResult) error {
	n := int(math.Round(cfg.Workload.ReplayPerSecond * cfg.Seconds))
	if n < 3 {
		n = 3
	}
	workers := runtime.GOMAXPROCS(0)
	db, err := gus.OpenDir(dataDir)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.LoadSynopses(dataDir); err != nil {
		return err
	}
	rec := newRecorder()
	env, err := openPipelineEnv(dataDir, workers, rec)
	if err != nil {
		return err
	}
	defer env.close()

	warm := env.quiet(nil)
	runs := make([]replayed, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		req := gen(i)
		r := &runs[i]
		// Every timed execution below should find the CPU caches in the same
		// state, or whichever runs first pays for the rows the previous
		// request evicted and the comparison is biased. A throwaway staged
		// run touches the data first; it has its own statement shapes, so
		// the real plan cache still sees this request for the first time.
		if err := warm.run(ctx, req); err != nil {
			return fmt.Errorf("replay of request %d: %w", i, err)
		}
		// Each timed execution also starts on a just-collected heap. With
		// data mapped, the live heap is tiny and a collection starts every
		// few MB allocated — about once per replayed request, at the same
		// point of the sequence each time — so without this one of the
		// timed runs would pay for every collection and the others for none.
		runtime.GC()
		// The server's path: a trace attached to every request.
		hits0 := db.PlanCacheStats().Hits
		realSpan := rec.begin("gus.Stmt.Query", -1, i)
		real, err := realRun(ctx, db, req, &gus.Trace{})
		rec.end(realSpan)
		r.query = rec.spans[realSpan].dur()
		if err != nil {
			return fmt.Errorf("replay of request %d: %w", i, err)
		}
		r.cacheHit = db.PlanCacheStats().Hits > hits0
		r.fraction, r.waves = real[0].FractionScanned, real[0].Waves

		runtime.GC()
		staged, err := env.staged(ctx, req, i, r.cacheHit)
		res.Attempted++
		if err == nil {
			err = identical(real, staged)
		}
		if err != nil {
			res.Failed++
			res.fail("staged replay of request %d (%s): %v", i, req.Kind, err)
			continue
		}

		// The same call without the trace prices what tracing every request
		// costs; a third, untimed call is bracketed by MemStats reads, which
		// stop the world and would slow a timed call. All hit the plan cache.
		runtime.GC()
		start := time.Now()
		if _, err := realRun(ctx, db, req, nil); err != nil {
			return fmt.Errorf("untraced replay of request %d: %w", i, err)
		}
		r.untraced = time.Since(start)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, err := realRun(ctx, db, req, &gus.Trace{}); err != nil {
			return fmt.Errorf("replay of request %d: %w", i, err)
		}
		runtime.ReadMemStats(&ms1)
		r.mallocs, r.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		start = time.Now()
		if _, err := db.PrepareCached(req.SQL); err != nil {
			return err
		}
		r.prepare = time.Since(start)
	}

	if err := writeTrace(filepath.Join(cfg.OutDir, "trace."+cfg.Workload.Name+".json"),
		traceFile{Workload: cfg.Workload.Name, Seed: cfg.Seed, Requests: n, Spans: rec.spans}); err != nil {
		return err
	}

	m := res.Metrics
	serverMetrics(m, sum)
	stageMetrics(m, rec.spans, runs, res)
	return probeLayers(ctx, cfg, env, db, gen(0), m)
}

// serverMetrics fills the cmd/gusserve layer from the HTTP window.
func serverMetrics(m metricSet, sum summary) {
	m["gusserve.http_overhead_ms"] = median(sum.overheadMS)
	m["gusserve.response_bytes"] = median(sum.bytes)
	m["gusserve.stream_frames_per_query"] = mean(sum.frames)
	m["gusserve.latency_p99_ms"] = 0
	if highestPercentile(len(sum.latencies), []float64{99}) == 99 {
		m["gusserve.latency_p99_ms"] = quantile(sum.latencies, 0.99)
	}
	m["gusserve.error_rate"] = 0
	if total := len(sum.latencies); total > 0 {
		m["gusserve.error_rate"] = float64(total-sum.ok) / float64(total)
	}
	m["gusload.sched_lag_p95_ms"] = sum.schedLagP95
}

// stageTotals holds one stage's total duration per request, indexed by
// request number; ran marks the requests that ran the stage at all.
type stageTotals struct {
	d   []time.Duration
	ran []bool
}

func (t stageTotals) any() bool {
	for _, r := range t.ran {
		if r {
			return true
		}
	}
	return false
}

// median is the median over the requests that ran the stage, in the given
// unit; 0 when none did (the stage is not part of the workload).
func (t stageTotals) median(unit time.Duration) float64 {
	var v []float64
	for id, r := range t.ran {
		if r {
			v = append(v, float64(t.d[id])/float64(unit))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func (t stageTotals) sum() time.Duration {
	var total time.Duration
	for _, d := range t.d {
		total += d
	}
	return total
}

// perRequest sums, for each of n requests, the durations of its root's
// direct child spans that match keep.
func perRequest(spans []span, n int, keep func(name string) bool) stageTotals {
	t := stageTotals{d: make([]time.Duration, n), ran: make([]bool, n)}
	isRoot := make([]bool, len(spans))
	for _, s := range spans {
		isRoot[s.ID] = s.Parent < 0 && strings.HasPrefix(s.Name, "request.")
	}
	for _, s := range spans {
		if s.Parent >= 0 && isRoot[s.Parent] && keep(s.Name) {
			t.d[s.Request] += s.dur()
			t.ran[s.Request] = true
		}
	}
	return t
}

func named(names ...string) func(string) bool {
	return func(n string) bool {
		for _, x := range names {
			if n == x {
				return true
			}
		}
		return false
	}
}

// counts collects one count key from every span that carries it.
func counts(spans []span, key string) []float64 {
	var out []float64
	for _, s := range spans {
		if v, ok := s.Counts[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

func total(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageMetrics turns the recorded spans and the per-request measurements
// into the per-layer metrics, and checks the staged pipeline against the
// real path's time.
func stageMetrics(m metricSet, spans []span, runs []replayed, res *runResult) {
	ms, us := time.Millisecond, time.Microsecond
	n := len(runs)
	stage := func(names ...string) stageTotals { return perRequest(spans, n, named(names...)) }

	var query, traceRatio, prepare, allocs, bytes, fractions, waves []float64
	hits := 0
	for _, r := range runs {
		query = append(query, msOf(r.query))
		prepare = append(prepare, float64(r.prepare)/float64(us))
		allocs = append(allocs, float64(r.mallocs))
		bytes = append(bytes, float64(r.bytes))
		fractions = append(fractions, r.fraction)
		waves = append(waves, float64(r.waves))
		if r.cacheHit {
			hits++
			if r.untraced > 0 {
				traceRatio = append(traceRatio, float64(r.query)/float64(r.untraced))
			}
		}
	}
	m["gus.query_ms"] = median(query)
	m["gus.prepare_cached_us"] = median(prepare)
	m["gus.plan_cache_hit_ratio"] = float64(hits) / float64(len(runs))
	m["gus.allocs_per_query"] = median(allocs)
	m["gus.bytes_per_query"] = median(bytes)
	m["gus.trace_overhead_ratio"] = 0
	if len(traceRatio) > 0 {
		m["gus.trace_overhead_ratio"] = median(traceRatio)
	}

	// Coverage: the staged stages against the real call; self: what the
	// root package does itself (options, cache lookup, grouping,
	// rendering, metrics) — the real call minus every other layer's stage.
	all := perRequest(spans, n, func(string) bool { return true })
	layers := perRequest(spans, n, func(name string) bool { return !strings.HasPrefix(name, "gus.") })
	var coverage, self []float64
	for id, r := range runs {
		if all.ran[id] && r.query > 0 {
			coverage = append(coverage, float64(all.d[id])/float64(r.query))
			self = append(self, msOf(r.query-layers.d[id]))
		}
	}
	m["gus.replay_coverage_ratio"], m["gus.self_ms"] = 0, 0
	if len(coverage) > 0 {
		c := median(coverage)
		m["gus.replay_coverage_ratio"] = c
		m["gus.self_ms"] = math.Max(0, median(self))
		switch {
		case math.Abs(c-1) <= driftTolerance:
		case len(coverage) < minDriftSamples:
			res.warn("staged pipeline accounts for %.0f%% of gus.query_ms over only %d requests", 100*c, len(coverage))
		default:
			res.fail("staged pipeline accounts for %.0f%% of gus.query_ms; it has drifted from gus.go", 100*c)
		}
	}

	m["sqlparse.normalize_us"] = stage("sqlparse.Normalize").median(us)
	m["sqlparse.parse_us"] = stage("sqlparse.Parse").median(us)
	m["sqlparse.plan_template_us"] = stage("sqlparse.PlanTemplate").median(us)
	m["sqlparse.bind_us"] = stage("sqlparse.Bind").median(us)
	m["plan.analyze_us"] = stage("plan.Analyze").median(us)
	m["plan.rewrite_steps"] = median(counts(spans, "rewrite_steps"))
	m["synopsis.subsume_us"] = stage("synopsis.Subsumes").median(us)
	m["synopsis.hit_ratio"] = ratio(total(counts(spans, "hits")), total(counts(spans, "tried")))
	m["synopsis.scan_reduction"] = ratio(total(counts(spans, "base_rows")), total(counts(spans, "synopsis_rows")))

	// A single-table plan is one fused kernel: its execute time is its
	// fused-scan time. A join's leaves were executed again under
	// probe.leaves; what execute spent beyond them is build and probe.
	execute := stage("engine.ExecuteBatch", "engine.ExecuteWave")
	fused := stageTotals{d: append([]time.Duration(nil), execute.d...), ran: execute.ran}
	for _, s := range spans {
		if s.Name == "probe.leaves" {
			fused.d[s.Request] = 0
		}
	}
	for _, s := range spans {
		if s.Name == "engine.ExecuteBatch.leaf" {
			fused.d[s.Request] += s.dur()
		}
	}
	join := stageTotals{d: make([]time.Duration, n), ran: make([]bool, n)}
	for id, d := range execute.d {
		if d > fused.d[id] {
			join.d[id], join.ran[id] = d-fused.d[id], true
		}
	}
	m["engine.execute_ms"] = execute.median(ms)
	m["engine.fused_scan_ms"] = fused.median(ms)
	m["engine.join_ms"] = join.median(ms)
	rowsIn := counts(spans, "rows_in")
	m["engine.rows_in"] = median(rowsIn)
	m["engine.rows_out"] = median(counts(spans, "rows_out"))
	m["engine.partitions_skipped_ratio"] = ratio(total(counts(spans, "partitions_skipped")), total(counts(spans, "partitions")))
	m["engine.scan_mrows_per_s"] = ratio(total(rowsIn)*1e3, float64(fused.sum())) // rows/ns ×1e3 = Mrows/s
	m["engine.prepare_waves_us"] = stage("engine.PrepareWaves").median(us)
	waveTotal := stage("engine.ExecuteWave")
	m["engine.wave_ms"], m["engine.waves_per_query"] = 0, 0
	if waveTotal.any() {
		var perWave []float64
		for id, d := range waveTotal.d {
			if waveTotal.ran[id] {
				perWave = append(perWave, msOf(d)/float64(runs[id].waves))
			}
		}
		m["engine.wave_ms"] = median(perWave)
		m["engine.waves_per_query"] = median(waves)
	}

	estimate := stage("estimator.EstimateBatch", "estimator.EstimateFromMoments", "estimator.DiagnoseAccum")
	accum := stage("estimator.Accum.Add", "estimator.Accum.Moments", "estimator.Accum.Finalize")
	m["estimator.estimate_ms"] = estimate.median(ms)
	m["estimator.ns_per_sample_row"] = ratio(float64(estimate.sum()+accum.sum()), total(counts(spans, "rows")))
	m["estimator.lineage_terms"] = median(counts(spans, "lineage_terms"))
	m["estimator.accum_add_ms"] = stage("estimator.Accum.Add").median(ms)
	m["estimator.accum_moments_ms"] = stage("estimator.Accum.Moments").median(ms)
	m["estimator.finalize_ms"] = stage("estimator.Accum.Finalize", "estimator.EstimateFromMoments").median(ms)

	m["online.run_ms"], m["online.self_ms"], m["online.fraction_scanned_p50"] = 0, 0, 0
	if waveTotal.any() {
		m["online.run_ms"] = median(query)
		var self []float64
		for id, d := range waveTotal.d {
			if waveTotal.ran[id] {
				self = append(self, msOf(runs[id].query-d-accum.d[id]))
			}
		}
		m["online.self_ms"] = math.Max(0, median(self))
		m["online.fraction_scanned_p50"] = median(fractions)
	}
}

// probeLayers measures the layers no single request isolates: storage
// open/write/generate, expression kernels, the grouper, worker scaling,
// mmap against resident scans, and the metrics exposition.
func probeLayers(ctx context.Context, cfg runConfig, env *pipelineEnv, db *gus.DB, first request, m metricSet) error {
	// Worker scaling first, while the heap is still small: the resident
	// tables probeStorage generates make every later collection expensive.
	if err := probeWorkers(ctx, env, first, m); err != nil {
		return err
	}
	if err := probeKernels(env, first, m); err != nil {
		return err
	}
	resident, err := probeStorage(cfg, env, m)
	if err != nil {
		return err
	}
	if err := probeResident(ctx, env, resident, first, m); err != nil {
		return err
	}
	var write []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := db.WriteMetrics(io.Discard); err != nil {
			return err
		}
		write = append(write, float64(time.Since(start))/float64(time.Microsecond))
	}
	m["obs.write_metrics_us"] = median(write)
	return nil
}

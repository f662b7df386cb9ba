package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one benchmark run: one workload, one seed, one window.
type runConfig struct {
	Workload workload
	Seed     uint64
	Seconds  float64
	Orders   int
	// OutDir receives trace files and holds the run's scratch directory
	// (dataset, server log), which is removed when the run ends.
	OutDir string
	BinDir string
	Trace  bool
}

// runResult is what a run reports.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"-"`
	// Problems lists every reason Correct is false, and warnings that do
	// not fail the run (prefixed "warning:").
	Problems []string `json:"-"`
}

func (r *runResult) fail(format string, a ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

func (r *runResult) warn(format string, a ...any) {
	r.Problems = append(r.Problems, "warning: "+fmt.Sprintf(format, a...))
}

const (
	// setupRepeats is how many times an untraced run sets up from an empty
	// directory; setup_s is their median, so one slow fork or page-cache
	// eviction does not become the reported number.
	setupRepeats = 3
	// warmupShare of the measured window is spent warming up first
	// (5 s for a 30 s window in the issue; the same share of any window).
	warmupShare = 1.0 / 6
	// resendCount requests are sent again after the window and must
	// reproduce their first reply byte for byte.
	resendCount = 20
	// minCoverage fails a run outright: a claimed 95% interval that covers
	// less often than this is wrong, not noisy.
	minCoverage = 0.90
)

// run executes one workload end to end against a real gusserve
// subprocess. Untraced runs report the end-to-end metrics; traced runs
// halve the HTTP window and then replay the same request stream
// in-process, stage by stage.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{Correct: true, Metrics: metricSet{}}
	scratch, err := os.MkdirTemp(cfg.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	gen := generator{w: cfg.Workload, seed: cfg.Seed, orders: cfg.Orders}
	warm := func(seq int) request { return gen.at(streamWarmup, seq) }
	measured := func(seq int) request { return gen.at(streamMeasured, seq) }

	repeats, window := setupRepeats, cfg.Seconds
	if cfg.Trace {
		repeats, window = 1, cfg.Seconds/2
	}

	// Set-up: empty directory → dataset → healthy server → first answer.
	// The first instance also serves the exact answers the covered
	// responses will be judged against, so that the measured instance (the
	// last; a traced run has only one) sees nothing but the workload. With
	// one exact join before the window, gusserve's resident set climbed from
	// 90 MB to 680 MB over 40 s of sampled joins in six runs of eight and
	// stayed flat in the other two: server_peak_rss_mb measured the
	// validation query, and did not repeat.
	var srv *server
	var dataDir string
	var setups []float64
	var exact map[string]map[string][]float64
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.stop()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		dataDir = filepath.Join(scratch, fmt.Sprintf("data%d", i))
		start := time.Now()
		if err := generateData(ctx, cfg.BinDir, dataDir, cfg.Orders, cfg.Seed); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, cfg.BinDir, dataDir, filepath.Join(scratch, "gusserve.log")); err != nil {
			return nil, err
		}
		c := newCaller(srv.base, 1)
		rp, _, err := c.do(ctx, warm(0))
		if err == nil && rp.Status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rp.Status, rp.Body)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err == nil && i == 0 {
			exact, err = fetchExact(ctx, c, coveredRequests(cfg.Workload, measured))
		}
		c.close()
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	defer srv.stop()
	res.Metrics["setup_s"] = median(setups)

	c := newCaller(srv.base, cfg.Workload.Clients)
	defer c.close()

	drive := func(g func(int) request, seconds float64) []sample {
		if cfg.Workload.Rate > 0 {
			return runOpen(ctx, c, g, cfg.Workload.Clients, cfg.Workload.Rate, int(math.Round(cfg.Workload.Rate*seconds)))
		}
		return runClosed(ctx, c, g, cfg.Workload.Clients, time.Duration(seconds*float64(time.Second)))
	}
	drive(warm, window*warmupShare)

	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	samples := drive(measured, window)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sum := summarize(cfg, samples, exact, res)
	res.Metrics["server_peak_rss_mb"] = rss
	if sum.ok > 0 {
		res.Metrics["server_cpu_ms_per_query"] = msOf(cpu1-cpu0) / float64(sum.ok)
	}

	// Seeded answers must not depend on load or timing: the first requests,
	// sent again on an idle server, reproduce their replies exactly.
	for _, s := range samples {
		if s.Req.Seq >= resendCount {
			break
		}
		res.Attempted++
		again, _, err := c.do(ctx, s.Req)
		if err != nil {
			res.Failed++
			res.fail("re-send of request %d: %v", s.Req.Seq, err)
			continue
		}
		if canonical(again.Body) != canonical(s.Reply.Body) {
			res.Failed++
			res.fail("request %d answered differently when sent again", s.Req.Seq)
		}
	}

	if cfg.Trace {
		srv.stop() // the replay measures in-process; free both cores for it
		if err := replay(ctx, cfg, dataDir, measured, sum, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// coveredRequests lists the requests whose replies feed the accuracy
// metrics: the first CoverK of CoverKind, by sequence number, so the set
// — and with it ci_coverage — repeats exactly for a given seed.
func coveredRequests(w workload, gen func(seq int) request) []request {
	var out []request
	for seq := 0; len(out) < w.CoverK; seq++ {
		if r := gen(seq); r.Kind == w.CoverKind {
			out = append(out, r)
		}
	}
	return out
}

// exactKey identifies a statement-plus-bindings regardless of seed.
func exactKey(r request) string { return fmt.Sprintf("%s %v", r.SQL, r.Args) }

// fetchExact asks the server once per distinct covered statement for the
// exact answer ("exact":true on POST /query, which also serves the
// streamed statement). The result maps exactKey → group → item values.
func fetchExact(ctx context.Context, c *caller, covered []request) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, r := range covered {
		key := exactKey(r)
		if _, done := out[key]; done {
			continue
		}
		body, err := json.Marshal(struct {
			SQL   string  `json:"sql"`
			Args  []int64 `json:"args,omitempty"`
			Exact bool    `json:"exact"`
		}{r.SQL, r.Args, true})
		if err != nil {
			return nil, err
		}
		rp, _, err := c.do(ctx, request{Body: body})
		if err != nil {
			return nil, fmt.Errorf("exact answer for %q: %w", r.SQL, err)
		}
		if rp.Status != http.StatusOK {
			return nil, fmt.Errorf("exact answer for %q: status %d: %s", r.SQL, rp.Status, rp.Body)
		}
		var wr wireResponse
		if err := json.Unmarshal(rp.Body, &wr); err != nil {
			return nil, fmt.Errorf("exact answer for %q: %w", r.SQL, err)
		}
		truth := map[string][]float64{}
		collect := func(group string, vs []wireValue) error {
			for _, v := range vs {
				if !finite(v.Exact) {
					return fmt.Errorf("exact answer for %q: item %q has none", r.SQL, v.Name)
				}
				truth[group] = append(truth[group], *v.Exact)
			}
			return nil
		}
		if err := collect("", wr.Values); err != nil {
			return nil, err
		}
		for _, g := range wr.Groups {
			if err := collect(g.Key, g.Values); err != nil {
				return nil, err
			}
		}
		out[key] = truth
	}
	return out, nil
}

// summary carries what the HTTP window measured beyond the metrics
// themselves, for the traced phase's gusserve.* rows.
type summary struct {
	ok           int
	overheadMS   []float64 // client round trip minus the server's own elapsedMs
	bytes        []float64
	frames       []float64
	latencies    []float64 // sorted
	schedLagP95  float64
	coveredCount int
}

// summarize validates every sample and folds the window into the
// end-to-end metrics.
func summarize(cfg runConfig, samples []sample, exact map[string]map[string][]float64, res *runResult) summary {
	w := cfg.Workload
	var sum summary
	var lat, first, lag []float64
	var acc accuracy
	var last time.Duration
	for _, s := range samples {
		res.Attempted++
		if s.Done > last {
			last = s.Done
		}
		// A failed request still took its time: it stays in the latency
		// distribution, and the run is marked incorrect besides.
		lat = append(lat, msOf(s.Done-s.Due))
		first = append(first, msOf(s.First-s.Due))
		lag = append(lag, msOf(s.Sent-s.Due))
		if s.Err != nil {
			res.Failed++
			res.fail("request %d: %v", s.Req.Seq, s.Err)
			continue
		}
		v, err := validate(s.Req, s.Reply)
		if err != nil {
			res.Failed++
			res.fail("request %d (%s): %v", s.Req.Seq, s.Req.Kind, err)
			continue
		}
		sum.ok++
		sum.overheadMS = append(sum.overheadMS, msOf(s.Done-s.Sent)-v.ElapsedMS)
		sum.bytes = append(sum.bytes, float64(len(s.Reply.Body)))
		sum.frames = append(sum.frames, float64(s.Reply.Frames))
		if s.Req.Kind == w.CoverKind && sum.coveredCount < w.CoverK {
			sum.coveredCount++
			acc.add(v.Estimates, exact[exactKey(s.Req)])
		}
	}
	sum.latencies = sortedCopy(lat)
	sum.schedLagP95 = quantile(sortedCopy(lag), 0.95)

	m := res.Metrics
	m["latency_p50_ms"] = quantile(sum.latencies, 0.50)
	m["latency_p95_ms"] = quantile(sum.latencies, 0.95)
	m["first_update_p50_ms"] = median(first)
	if last > 0 {
		m["throughput_qps"] = float64(sum.ok) / last.Seconds()
	}
	m["ci_coverage"] = acc.coverage()
	m["rel_ci_halfwidth_p50"] = median(acc.halfWidths)

	// A traced run's HTTP window is half as long and reports none of
	// the end-to-end metrics, so their sample-size caveats do not apply.
	if !cfg.Trace && highestPercentile(len(lat), []float64{50, 90, 95, 99}) < 95 {
		res.warn("%d samples: latency_p95_ms has fewer than %d beyond it", len(lat), minTail)
	}
	if !cfg.Trace && sum.coveredCount < w.CoverK {
		res.warn("only %d of %d covered responses arrived in the window; ci_coverage will not repeat exactly", sum.coveredCount, w.CoverK)
	}
	if cov := acc.coverage(); w.GateCoverage && !(cov >= minCoverage) {
		res.fail("ci_coverage %.3f below %.2f over %d intervals", cov, minCoverage, acc.total)
	}
	if w.Rate > 0 && m["throughput_qps"] < 0.98*w.Rate {
		res.warn("saturated: completed %.1f req/s of %.0f offered", m["throughput_qps"], w.Rate)
	}
	return sum
}

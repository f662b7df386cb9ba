// Package obs is the query-level observability substrate: per-query
// execution traces (spans + progressive wave series) and a process-wide
// metrics registry with Prometheus text exposition. Everything here is
// built for a hot path that is usually *not* observed: a nil *Trace is a
// valid receiver for every method (each does a single pointer test and
// returns), and all metric primitives are plain atomics — no maps, no
// locks and no allocations on the observation path.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span records one timed stage of a query's execution: parse/plan, GUS
// compaction, an engine operator (scan, sample, join build/probe, group),
// or estimation. Node ties engine spans back to the numbered plan node
// they executed (-1 when the span is not tied to a plan node).
type Span struct {
	// Name is the stage kind: "parse+plan", "gus-compact", "scan",
	// "sample", "select", "project", "join-build", "join-probe", "theta",
	// "union", "intersect", "group", "estimate", "fused".
	Name string `json:"name"`
	// Label carries stage detail: the scan alias, the sampling method,
	// the join columns, the aggregate expression.
	Label string `json:"label,omitempty"`
	// Node is the plan node's pre-order number, or -1.
	Node int `json:"node"`
	// Start is the offset from the trace's first event; Dur the span's
	// wall time.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// RowsIn/RowsOut count tuples entering and leaving the stage (-1 when
	// not applicable, e.g. parse+plan).
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// Partitions is the number of morsel partitions the stage touched (0
	// when not partitioned).
	Partitions int `json:"partitions,omitempty"`
	// Skipped is the number of those partitions zone maps let the fused
	// kernel skip without touching their rows.
	Skipped int `json:"skipped,omitempty"`
	// Fraction is the effective sampling fraction a sample stage applied
	// (0 when the stage does not sample).
	Fraction float64 `json:"fraction,omitempty"`
	// Hit marks a plan-cache hit on a parse+plan span.
	Hit bool `json:"hit,omitempty"`
}

// WavePoint is one progressive-execution wave: how much of the data had
// been scanned when the wave's running estimate was snapshotted, the
// estimate and CI width at that point, and the wave's own latency.
type WavePoint struct {
	Wave            int           `json:"wave"`
	FractionScanned float64       `json:"fraction_scanned"`
	Estimate        float64       `json:"estimate"`
	CIWidth         float64       `json:"ci_width"`
	Latency         time.Duration `json:"latency_ns"`
}

// Trace is a per-query execution trace. The zero value is ready to use;
// a nil *Trace is also valid for every method (they no-op), which is how
// the untraced hot path stays free of branches beyond one pointer test.
//
// A single query execution appends to its Trace from multiple goroutines
// (the engine executes join sides concurrently), so appends are
// mutex-guarded; the mutex is uncontended in the common serial case.
type Trace struct {
	mu    sync.Mutex
	start time.Time

	// QueryID is the caller-assigned request identifier (gusserve sets
	// it); empty for library use.
	QueryID string `json:"query_id,omitempty"`
	// SQL is the original statement text; Shape its normalized plan-cache
	// key.
	SQL   string `json:"sql,omitempty"`
	Shape string `json:"shape,omitempty"`
	// Spans are the recorded stages in Begin order (engine stages in
	// serial execution order once the query has finished, see
	// OrderNodeSpans).
	Spans []Span `json:"spans"`
	// Waves is the progressive per-wave series (empty for one-shot
	// queries).
	Waves []WavePoint `json:"waves,omitempty"`
	// PlanTree is the annotated plan rendering (filled by the executor
	// when the query finishes).
	PlanTree string `json:"plan_tree,omitempty"`
	// Total is the whole query's wall time.
	Total time.Duration `json:"total_ns"`
}

// now returns the offset since the trace's first event, anchoring the
// clock lazily on first use.
func (t *Trace) now() time.Duration {
	if t.start.IsZero() {
		t.start = time.Now()
		return 0
	}
	return time.Since(t.start)
}

// Begin opens a span and returns its index for End. On a nil trace it
// returns -1 and records nothing.
func (t *Trace) Begin(name, label string, node int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := len(t.Spans)
	t.Spans = append(t.Spans, Span{
		Name:    name,
		Label:   label,
		Node:    node,
		Start:   t.now(),
		RowsIn:  -1,
		RowsOut: -1,
	})
	return idx
}

// End closes the span opened at idx, recording its duration and row
// counts. rowsIn/rowsOut of -1 mean "not applicable". Safe on a nil
// trace or idx < 0.
func (t *Trace) End(idx int, rowsIn, rowsOut int64) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx >= len(t.Spans) {
		return
	}
	s := &t.Spans[idx]
	s.Dur = t.now() - s.Start
	s.RowsIn, s.RowsOut = rowsIn, rowsOut
}

// SetSpan amends details of the span at idx. Safe on nil / idx < 0.
func (t *Trace) SetSpan(idx int, fn func(*Span)) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx >= len(t.Spans) {
		return
	}
	fn(&t.Spans[idx])
}

// AddWave appends one progressive wave point. Safe on a nil trace.
func (t *Trace) AddWave(wave int, fraction, estimate, ciWidth float64, latency time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Waves = append(t.Waves, WavePoint{
		Wave:            wave,
		FractionScanned: fraction,
		Estimate:        estimate,
		CIWidth:         ciWidth,
		Latency:         latency,
	})
}

// Finish stamps the trace's total wall time and identity fields. Safe on
// a nil trace.
func (t *Trace) Finish(sql, shape string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Total = t.now()
	if t.SQL == "" {
		t.SQL = sql
	}
	if t.Shape == "" {
		t.Shape = shape
	}
}

// SetPlanTree stores the annotated plan rendering. Safe on a nil trace.
func (t *Trace) SetPlanTree(s string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.PlanTree = s
}

// OrderNodeSpans rearranges the spans tied to plan nodes into the order a
// serial execution records them in — rank[node] ascending, Begin order
// within a node — leaving every other span where it is. The engine runs a
// join's two inputs concurrently and their spans arrive interleaved by the
// scheduler; the executor calls this once the query is done, so every
// rendering of a trace (Format, JSON) lists stages in one deterministic
// order. Safe on a nil trace.
func (t *Trace) OrderNodeSpans(rank map[int]int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var at []int
	var spans []Span
	for i, s := range t.Spans {
		if s.Node >= 0 {
			at = append(at, i)
			spans = append(spans, s)
		}
	}
	sort.SliceStable(spans, func(a, b int) bool { return rank[spans[a].Node] < rank[spans[b].Node] })
	for k, i := range at {
		t.Spans[i] = spans[k]
	}
}

// NodeSpans returns the recorded spans for a plan node number, in Begin
// order. Nil trace → nil.
func (t *Trace) NodeSpans(node int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.Spans {
		if s.Node == node {
			out = append(out, s)
		}
	}
	return out
}

// JSON renders the trace as indented JSON (for -trace-json tooling).
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.MarshalIndent(t, "", "  ")
}

// Format renders the trace for humans: the annotated plan tree (when the
// executor attached one), a stage table in execution order, and the
// progressive wave series if present.
func (t *Trace) Format() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	if t.QueryID != "" {
		fmt.Fprintf(&b, "query %s\n", t.QueryID)
	}
	if t.PlanTree != "" {
		b.WriteString(t.PlanTree)
		if !strings.HasSuffix(t.PlanTree, "\n") {
			b.WriteByte('\n')
		}
	}
	if len(t.Spans) > 0 {
		b.WriteString("stages:\n")
		for _, s := range t.Spans {
			fmt.Fprintf(&b, "  %-12s", s.Name)
			if s.Label != "" {
				fmt.Fprintf(&b, " %s", s.Label)
			}
			fmt.Fprintf(&b, "  time=%s", fmtDur(s.Dur))
			if s.RowsIn >= 0 {
				fmt.Fprintf(&b, " rows_in=%d", s.RowsIn)
			}
			if s.RowsOut >= 0 {
				fmt.Fprintf(&b, " rows_out=%d", s.RowsOut)
			}
			if s.Partitions > 0 {
				fmt.Fprintf(&b, " partitions=%d", s.Partitions)
			}
			if s.Skipped > 0 {
				fmt.Fprintf(&b, " skipped=%d", s.Skipped)
			}
			if s.Fraction > 0 {
				fmt.Fprintf(&b, " fraction=%.4g", s.Fraction)
			}
			if s.Name == "parse+plan" {
				if s.Hit {
					b.WriteString(" plan-cache=hit")
				} else {
					b.WriteString(" plan-cache=miss")
				}
			}
			if s.Node >= 0 {
				fmt.Fprintf(&b, " node=%d", s.Node)
			}
			b.WriteByte('\n')
		}
	}
	if len(t.Waves) > 0 {
		b.WriteString("waves:\n")
		for _, w := range t.Waves {
			fmt.Fprintf(&b, "  wave %2d  scanned=%6.2f%%  estimate=%.6g  ci_width=%.6g  latency=%s\n",
				w.Wave, 100*w.FractionScanned, w.Estimate, w.CIWidth, fmtDur(w.Latency))
		}
	}
	fmt.Fprintf(&b, "total: %s\n", fmtDur(t.Total))
	return b.String()
}

// fmtDur renders a duration at microsecond granularity — stable widths
// for eyeballing, no sub-microsecond noise.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// StageTotals sums recorded span durations by stage name (for gusbench's
// per-stage attribution). Nil trace → nil.
func (t *Trace) StageTotals() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.Spans) == 0 {
		return nil
	}
	m := make(map[string]time.Duration, len(t.Spans))
	for _, s := range t.Spans {
		m[s.Name] += s.Dur
	}
	return m
}

// StageNames returns the distinct stage names of StageTotals in sorted
// order, a convenience for deterministic report rendering.
func StageNames(totals map[string]time.Duration) []string {
	names := make([]string, 0, len(totals))
	for k := range totals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

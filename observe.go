// Query-level observability: the public trace API (WithTrace, EXPLAIN
// ANALYZE rendering) and the DB-wide metrics registry behind
// MetricsSnapshot/WriteMetrics. The hot path is engineered to be
// near-free when nobody is looking: tracing is a nil-pointer test per
// span site, and every per-query metric update is a handful of atomic
// operations on counters resolved once at Prepare time — no maps, no
// locks, no allocations.
package gus

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/plan"
)

// Trace is a per-query execution trace: stage spans (parse/plan, GUS
// compaction, every engine operator, estimation), the annotated plan
// tree, and — for progressive queries — a per-wave series of (fraction
// scanned, estimate, CI width, latency). Attach a zero-value Trace with
// WithTrace, run the query, then read the fields or render with Format.
type Trace = obs.Trace

// TraceSpan is one recorded stage of a Trace.
type TraceSpan = obs.Span

// TraceWave is one progressive wave point of a Trace.
type TraceWave = obs.WavePoint

// MetricSample is one exported metric in a MetricsSnapshot.
type MetricSample = obs.Metric

// WithTrace attaches an execution trace to this query: every stage
// records a span into t, and progressive queries additionally record a
// per-wave series. The same t may be reused across queries (spans
// append); a fresh &gus.Trace{} per query is the common pattern.
// Tracing never changes results — estimates are bit-identical with and
// without it.
func WithTrace(t *Trace) Option { return func(o *queryOptions) { o.trace = t } }

// ---------------------------------------------------------------------------
// DB metrics.

// maxShapeSlots bounds the per-shape metric cardinality: beyond this
// many distinct normalized statements, further shapes share the "other"
// slot so a query-generating workload cannot grow the registry without
// bound.
const maxShapeSlots = 256

// shapeMetrics is one normalized query shape's pre-resolved metric
// slots. A Stmt holds the pointer, so per-execution updates are pure
// atomics.
type shapeMetrics struct {
	shape   string
	queries *obs.Counter
	errors  *obs.Counter
	seconds *obs.Histogram
}

// dbMetrics is the DB's registry plus the pre-resolved global slots the
// per-query hot path touches.
type dbMetrics struct {
	reg *obs.Registry

	queriesOK    *obs.Counter
	queriesErr   *obs.Counter
	inFlight     *obs.Gauge
	rowsScanned  *obs.Counter
	sampleRows   *obs.Counter
	partsSkipped *obs.Counter
	sampleFrac   *obs.Histogram
	querySecs    *obs.Histogram
	stopReasons  *obs.CounterVec

	shapeQueries *obs.CounterVec
	shapeErrors  *obs.CounterVec
	shapeSecs    *obs.HistogramVec

	auditRuns *obs.CounterVec
	auditRows *obs.Counter

	synHits   *obs.Counter
	synMisses *obs.CounterVec

	mu       sync.Mutex
	shapes   map[string]*shapeMetrics
	overflow *shapeMetrics
}

func newDBMetrics(db *DB) *dbMetrics {
	reg := obs.NewRegistry()
	m := &dbMetrics{
		reg:          reg,
		inFlight:     reg.Gauge("gus_in_flight_queries", "Queries currently executing."),
		rowsScanned:  reg.Counter("gus_rows_scanned_total", "Base-table input rows read by completed queries."),
		sampleRows:   reg.Counter("gus_sample_rows_total", "Sample tuples produced by completed queries."),
		partsSkipped: reg.Counter("gus_partitions_skipped_total", "Input partitions zone maps let completed queries skip."),
		sampleFrac:   reg.Histogram("gus_sample_fraction", "Sample rows over input rows per completed query.", obs.FractionBuckets),
		querySecs:    reg.Histogram("gus_query_seconds", "Query latency in seconds.", obs.LatencyBuckets),
		stopReasons:  reg.CounterVec("gus_progressive_stop_total", "Progressive streams by stop reason.", "reason"),
		shapeQueries: reg.CounterVec("gus_shape_queries_total", "Completed queries by normalized statement shape.", "shape"),
		shapeErrors:  reg.CounterVec("gus_shape_errors_total", "Failed queries by normalized statement shape.", "shape"),
		shapeSecs:    reg.HistogramVec("gus_shape_query_seconds", "Query latency by normalized statement shape.", "shape", obs.LatencyBuckets),
		auditRuns:    reg.CounterVec("gus_audit_runs_total", "Shadow-audit attempts by outcome (ok, skipped, budget, error).", "status"),
		auditRows:    reg.Counter("gus_audit_rows_scanned_total", "Base-table rows scanned by shadow-audit replays (sampled plus exact)."),
		synHits:      reg.Counter("gus_synopsis_hits_total", "Sampled scans served from a materialized synopsis."),
		synMisses:    reg.CounterVec("gus_synopsis_misses_total", "Sampled scans that fell back to a full scan, by reason (disabled, none, method, rate, stale, seed).", "reason"),
		shapes:       map[string]*shapeMetrics{},
	}
	queries := reg.CounterVec("gus_queries_total", "Completed queries by outcome.", "status")
	m.queriesOK = queries.With("ok")
	m.queriesErr = queries.With("error")
	reg.RegisterFunc("gus_plan_cache_hits_total", "Implicit plan cache hits.", func() float64 {
		return float64(db.plans.stats().Hits)
	})
	reg.RegisterFunc("gus_plan_cache_misses_total", "Implicit plan cache misses.", func() float64 {
		return float64(db.plans.stats().Misses)
	})
	reg.RegisterFunc("gus_plan_cache_entries", "Implicit plan cache current entries.", func() float64 {
		return float64(db.plans.stats().Entries)
	})
	reg.RegisterFunc("gus_segment_bytes_mapped", "Bytes of segment files currently mmapped into this process.", func() float64 {
		return float64(db.segs.bytesMapped())
	})
	reg.RegisterFunc("gus_ci_coverage_ratio", "Fraction of calibration observations whose claimed CI covered the exact answer (NaN before any observation).", func() float64 {
		covered, total := db.calib.Totals()
		if total == 0 {
			return math.NaN()
		}
		return float64(covered) / float64(total)
	})
	reg.RegisterFunc("gus_audit_observations_total", "CI-calibration observations recorded (shadow audits plus ObserveAccuracy).", func() float64 {
		_, total := db.calib.Totals()
		return float64(total)
	})
	return m
}

// shapeSlot resolves (once per distinct shape) the pre-bound metric
// slots for a normalized statement. Called at Prepare time, never per
// execution.
func (m *dbMetrics) shapeSlot(shape string) *shapeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.shapes[shape]; ok {
		return s
	}
	if len(m.shapes) >= maxShapeSlots {
		if m.overflow == nil {
			m.overflow = &shapeMetrics{
				shape:   "other",
				queries: m.shapeQueries.With("other"),
				errors:  m.shapeErrors.With("other"),
				seconds: m.shapeSecs.With("other"),
			}
		}
		return m.overflow
	}
	s := &shapeMetrics{
		shape:   shape,
		queries: m.shapeQueries.With(shape),
		errors:  m.shapeErrors.With(shape),
		seconds: m.shapeSecs.With(shape),
	}
	m.shapes[shape] = s
	return s
}

// MetricsSnapshot returns a point-in-time flat view of every DB metric,
// sorted by (name, label) — the in-process alternative to scraping the
// Prometheus endpoint.
func (db *DB) MetricsSnapshot() []MetricSample {
	return db.metrics.reg.Snapshot()
}

// WriteMetrics renders every DB metric in the Prometheus text
// exposition format (what gusserve serves at GET /metrics).
func (db *DB) WriteMetrics(w io.Writer) error {
	return db.metrics.reg.WritePrometheus(w)
}

// PrepareCachedTrace is PrepareCached plus trace bookkeeping: it records
// the parse+plan span (with the plan-cache outcome) on tr, so callers
// that prepare explicitly and then execute the Stmt — like gusserve —
// produce the same trace a db.Query call would. tr may be nil.
func (db *DB) PrepareCachedTrace(sql string, tr *Trace) (*Stmt, error) {
	o := queryOptions{trace: tr}
	return db.resolve(stmtRef{sql: sql}, &o)
}

// ---------------------------------------------------------------------------
// Trace finalization.

// recordPlanSpan back-fills the parse+plan span: planning happened before
// the trace's clock anchored, so the span carries an explicit duration and
// the plan-cache outcome.
func recordPlanSpan(t *obs.Trace, d time.Duration, hit bool) {
	sp := t.Begin("parse+plan", "", -1)
	t.End(sp, -1, -1)
	t.SetSpan(sp, func(s *obs.Span) {
		s.Dur = d
		s.Hit = hit
	})
}

// finishTrace completes the trace of a finished query: it renders the
// annotated plan tree and stamps totals. The annotation per node
// aggregates its recorded spans (a node can have several: join build +
// probe). It returns the rendered trace for an EXPLAIN ANALYZE statement,
// "" otherwise or when no trace rides along.
func finishTrace(o *queryOptions, root plan.Node, explain bool) string {
	t := o.trace
	if t == nil {
		return ""
	}
	t.OrderNodeSpans(serialRanks(root))
	t.SetPlanTree(plan.FormatAnnotated(root, func(n plan.Node, id int) string {
		a := annotateNode(t, id)
		// Synopsis-served scans carry the synopsis name in the annotated
		// tree even when the fused kernel left them no spans of their own.
		if s, ok := n.(*plan.Scan); ok && s.Synopsis != "" {
			if a != "" {
				a += " "
			}
			a += "synopsis=" + s.Synopsis
		}
		return a
	}))
	t.Finish(o.st.sql, o.st.shape)
	if !explain {
		return ""
	}
	return t.Format()
}

// serialRanks maps each plan node's number (pre-order, the engine's
// numbering) to its position in serial execution order: inputs left to
// right, then the node itself.
func serialRanks(root plan.Node) map[int]int {
	rank := map[int]int{}
	id := 0
	var visit func(plan.Node)
	visit = func(n plan.Node) {
		me := id
		id++
		for _, c := range n.Children() {
			visit(c)
		}
		rank[me] = len(rank)
	}
	visit(root)
	return rank
}

// annotateNode summarizes a plan node's spans for the annotated tree.
func annotateNode(t *obs.Trace, id int) string {
	spans := t.NodeSpans(id)
	if len(spans) == 0 {
		return ""
	}
	var dur time.Duration
	rowsOut := int64(-1)
	parts := 0
	skipped := 0
	frac := 0.0
	for _, s := range spans {
		dur += s.Dur
		if s.RowsOut >= 0 {
			rowsOut = s.RowsOut
		}
		if s.Partitions > parts {
			parts = s.Partitions
		}
		skipped += s.Skipped
		if s.Fraction > 0 {
			frac = s.Fraction
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time=%s", dur.Round(time.Microsecond))
	if rowsOut >= 0 {
		fmt.Fprintf(&b, " rows=%d", rowsOut)
	}
	if parts > 0 {
		fmt.Fprintf(&b, " partitions=%d", parts)
	}
	if skipped > 0 {
		fmt.Fprintf(&b, " skipped=%d", skipped)
	}
	if frac > 0 {
		fmt.Fprintf(&b, " fraction=%.4g", frac)
	}
	return b.String()
}

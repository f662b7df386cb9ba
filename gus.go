// Package gus is a sampling-based approximate query processor implementing
// "A Sampling Algebra for Aggregate Estimation" (Nirkhiwale, Dobra,
// Jermaine, PVLDB 6(12), 2013).
//
// It evaluates SQL aggregate queries whose tables carry TABLESAMPLE
// clauses, and — unlike a plain executor — returns statistically sound
// estimates of the aggregate over the FULL data, together with variance
// and confidence intervals. Internally, each concrete sampling operator is
// translated into a Generalized Uniform Sampling (GUS) quasi-operator,
// the plan is rewritten under SOA-equivalence until a single GUS sits below
// the aggregate (Propositions 4–9), and the SBox estimator applies
// Theorem 1 to the sample's lineage.
//
// Quick start:
//
//	db := gus.Open()
//	_ = db.AttachTPCH(0.01, 42)
//	res, _ := db.Query(`
//	    SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05),
//	           QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95)
//	    FROM lineitem TABLESAMPLE (10 PERCENT),
//	         orders TABLESAMPLE (1000 ROWS)
//	    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`)
//	fmt.Println(res.Values[0].Value, res.Values[1].Value)
package gus

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sqlparse"
	"github.com/sampling-algebra/gus/internal/stats"
	"github.com/sampling-algebra/gus/internal/synopsis"
	"github.com/sampling-algebra/gus/internal/tpch"
)

// ColumnType enumerates table column types.
type ColumnType int

// Supported column types.
const (
	Int ColumnType = iota
	Float
	String
)

// Column declares one table column.
type Column struct {
	Name string
	Type ColumnType
}

// Interval selects the confidence-interval construction (§6.4).
type Interval int

const (
	// NormalInterval uses the optimistic normal approximation
	// (95% ⇒ μ̂ ± 1.96σ̂).
	NormalInterval Interval = iota
	// ChebyshevInterval uses the distribution-free Chebyshev bound
	// (95% ⇒ μ̂ ± 4.47σ̂).
	ChebyshevInterval
)

// DB is an in-memory database with estimation-aware query processing.
// Queries execute on the parallel partitioned engine (internal/engine).
//
// A DB is safe for concurrent use: Query, Exact, Robustness and
// QueryProgressive may run from many goroutines at once; catalog writes
// (CreateTable, LoadCSV, AttachTPCH, Table.Insert) serialize against
// in-flight queries via an internal RWMutex. A progressive stream holds
// the lock only while planning — its waves then run against an immutable
// snapshot, so even a long-lived stream never blocks writers.
//
// Query, Exact and QueryProgressive are backed by a bounded LRU plan cache
// keyed by normalized SQL (see stmt.go): repeated statements skip parsing,
// planning and kernel compilation. Catalog writes bump an internal
// generation counter that invalidates every cached plan. For explicit
// compile-once/execute-many control — including `?` parameter binding —
// use Prepare.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*relation.Relation
	workers int
	// gen counts catalog writes; plan-cache entries are tagged with it and
	// lookups discard entries from older generations.
	gen   atomic.Uint64
	plans *planCache
	// metrics is the DB-wide registry behind MetricsSnapshot/WriteMetrics;
	// hot-path slots are pre-resolved here and on each Stmt (see observe.go).
	metrics *dbMetrics
	// segs tracks the open mmap segment handles behind segment-mode tables
	// (see storage.go): Close unmaps them, the bytes-mapped gauge sums them.
	segs segState
	// calib aggregates CI-calibration observations — shadow audits and
	// ObserveAccuracy feeds — behind AccuracySnapshot and the
	// gus_ci_coverage_ratio gauge (see accuracy.go).
	calib *obs.Calibration
	// audit holds the optional shadow auditor's lifecycle (see accuracy.go).
	audit auditState
	// syns indexes the materialized sample synopses the planner may serve
	// sampled scans from (see synopsis.go). Guarded by mu, like tables.
	syns *synopsis.Registry
}

// Open creates an empty database. Options configure optional subsystems —
// e.g. WithAuditor starts the background CI-calibration auditor.
func Open(opts ...DBOption) *DB {
	db := &DB{tables: map[string]*relation.Relation{}, plans: newPlanCache(DefaultPlanCacheSize)}
	db.syns = synopsis.NewRegistry()
	db.calib = obs.NewCalibration(0)
	db.metrics = newDBMetrics(db)
	for _, fn := range opts {
		fn(db)
	}
	return db
}

// SetWorkers sets the default worker-pool width for subsequent queries
// (per-query WithWorkers overrides it). n ≤ 0 restores the default of
// runtime.GOMAXPROCS(0). Seeded results are bit-identical at any width.
func (db *DB) SetWorkers(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n < 0 {
		n = 0
	}
	db.workers = n
}

// Table provides write access to one base table. Its methods serialize
// against queries on the owning DB.
type Table struct {
	db  *DB
	rel *relation.Relation
}

// CreateTable registers a new empty table.
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("gus: table %q already exists", name)
	}
	rcols := make([]relation.Column, len(cols))
	for i, c := range cols {
		var k relation.Kind
		switch c.Type {
		case Int:
			k = relation.KindInt
		case Float:
			k = relation.KindFloat
		case String:
			k = relation.KindString
		default:
			return nil, fmt.Errorf("gus: unknown column type %d", c.Type)
		}
		rcols[i] = relation.Column{Name: c.Name, Kind: k}
	}
	schema, err := relation.NewSchema(rcols...)
	if err != nil {
		return nil, fmt.Errorf("gus: %w", err)
	}
	rel, err := relation.New(name, schema)
	if err != nil {
		return nil, fmt.Errorf("gus: %w", err)
	}
	db.tables[name] = rel
	db.gen.Add(1)
	return &Table{db: db, rel: rel}, nil
}

// Len returns the table's tuple count.
func (t *Table) Len() int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.rel.Len()
}

// Insert appends one row; values must match the schema (int/int64,
// float64, string; ints widen to float columns).
func (t *Table) Insert(values ...any) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tup, err := toTuple(t.rel.Schema(), values)
	if err != nil {
		return err
	}
	t.db.gen.Add(1)
	if err := t.rel.Append(tup); err != nil {
		return err
	}
	return t.db.maintainSynopses(t.rel)
}

// InsertWithID appends one row with an explicit lineage ID — e.g. the
// paper's l_orderkey*10+l_linenumber primary-key encoding (§6.2). IDs must
// be unique within the table.
func (t *Table) InsertWithID(id uint64, values ...any) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tup, err := toTuple(t.rel.Schema(), values)
	if err != nil {
		return err
	}
	t.db.gen.Add(1)
	if err := t.rel.AppendWithID(lineage.TupleID(id), tup); err != nil {
		return err
	}
	return t.db.maintainSynopses(t.rel)
}

func toTuple(schema *relation.Schema, values []any) (relation.Tuple, error) {
	if len(values) != schema.Len() {
		return nil, fmt.Errorf("gus: %d values for %d columns", len(values), schema.Len())
	}
	tup := make(relation.Tuple, len(values))
	for i, v := range values {
		kind := schema.Col(i).Kind
		switch x := v.(type) {
		case int:
			if kind == relation.KindFloat {
				tup[i] = relation.Float(float64(x))
			} else {
				tup[i] = relation.Int(int64(x))
			}
		case int64:
			if kind == relation.KindFloat {
				tup[i] = relation.Float(float64(x))
			} else {
				tup[i] = relation.Int(x)
			}
		case float64:
			tup[i] = relation.Float(x)
		case string:
			tup[i] = relation.String_(x)
		default:
			return nil, fmt.Errorf("gus: unsupported value type %T for column %s", v, schema.Col(i).Name)
		}
		if tup[i].Kind() != kind {
			return nil, fmt.Errorf("gus: column %s expects %s, got %T", schema.Col(i).Name, kind, v)
		}
	}
	return tup, nil
}

// LoadCSV registers a table from a CSV file previously written by SaveCSV
// (or following its "#id,name:type,…" header convention).
func (db *DB) LoadCSV(name, path string) error {
	// Reject duplicate names before parsing the file, matching
	// CreateTable's error ordering; re-checked under the write lock in
	// case a concurrent load won the race.
	db.mu.RLock()
	_, dup := db.tables[name]
	db.mu.RUnlock()
	if dup {
		return fmt.Errorf("gus: table %q already exists", name)
	}
	rel, err := relation.LoadCSVFile(name, path)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("gus: table %q already exists", name)
	}
	db.tables[name] = rel
	db.gen.Add(1)
	return nil
}

// SaveCSV writes a registered table to a CSV file.
func (db *DB) SaveCSV(name, path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("gus: unknown table %q", name)
	}
	return rel.SaveCSVFile(path)
}

// AttachTPCH generates and registers TPC-H-style lineitem, orders,
// customer and part tables at the given scale factor (1.0 ≈ 1.5M orders).
func (db *DB) AttachTPCH(scaleFactor float64, seed uint64) error {
	return db.AttachTPCHConfig(tpch.ScaleFactor(scaleFactor, seed))
}

// AttachTPCHConfig is AttachTPCH with full generator control.
func (db *DB) AttachTPCHConfig(cfg tpch.Config) error {
	tb, err := tpch.Generate(cfg)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, r := range tb.All() {
		if _, dup := db.tables[r.Name()]; dup {
			return fmt.Errorf("gus: table %q already exists", r.Name())
		}
	}
	for _, r := range tb.All() {
		db.tables[r.Name()] = r
	}
	db.gen.Add(1)
	return nil
}

// TableNames lists registered tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns the write handle for a registered table — how rows are
// appended to tables that were not CreateTable'd in this process (loaded
// from CSV, generated, or attached from a segment). Segment-backed tables
// accept appends too: new rows go to a resident tail and merge with the
// mapped base image under snapshot isolation (the file is not modified).
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("gus: unknown table %q", name)
	}
	return &Table{db: db, rel: rel}, nil
}

// TableLen returns a table's cardinality.
func (db *DB) TableLen(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.tables[name]
	if !ok {
		return 0, fmt.Errorf("gus: unknown table %q", name)
	}
	return rel.Len(), nil
}

type catalog struct{ db *DB }

func (c catalog) Table(name string) (*relation.Relation, bool) {
	r, ok := c.db.tables[name]
	return r, ok
}

// queryOptions collects per-query settings.
type queryOptions struct {
	seed            uint64
	level           float64
	interval        Interval
	maxVarianceRows int
	systemBlockSize int
	workers         int
	noZoneSkip      bool
	noSynopsis      bool
	// Progressive (QueryProgressive) settings; ignored by Query.
	targetRelCI float64
	deadline    time.Duration
	maxFraction float64
	waveRows    int

	// Prepared-statement execution state (set by Stmt, never by Options):
	// the bound parameter values and the statement's compile-once kernel
	// snapshot.
	args []relation.Value
	prep *engine.Prepared

	// trace receives per-stage spans when the caller attached one with
	// WithTrace (or the statement is EXPLAIN ANALYZE); nil on the common
	// path, where every span site reduces to one pointer test.
	trace *obs.Trace
	// sm holds the statement's pre-resolved per-shape metric slots, sql its
	// original text and shape its normalized text; all set by Stmt, never
	// by Options.
	sm    *shapeMetrics
	sql   string
	shape string
}

// Option customizes Query.
type Option func(*queryOptions)

// WithSeed fixes the sampling RNG seed (default 1), making runs repeatable.
func WithSeed(seed uint64) Option { return func(o *queryOptions) { o.seed = seed } }

// WithConfidence sets the two-sided CI level (default 0.95).
func WithConfidence(level float64) Option { return func(o *queryOptions) { o.level = level } }

// WithInterval selects normal or Chebyshev intervals (default normal).
func WithInterval(iv Interval) Option { return func(o *queryOptions) { o.interval = iv } }

// WithVarianceSubsampling activates §7 sub-sampling: variance moments are
// estimated from about maxRows sample tuples (the paper suggests 10000)
// instead of the whole sample. The point estimate still uses every tuple.
func WithVarianceSubsampling(maxRows int) Option {
	return func(o *queryOptions) { o.maxVarianceRows = maxRows }
}

// WithSystemBlockSize sets the block size SYSTEM sampling simulates
// (default 32 tuples per block).
func WithSystemBlockSize(n int) Option { return func(o *queryOptions) { o.systemBlockSize = n } }

// WithWorkers sets this query's worker-pool width (default: the DB's
// SetWorkers value, falling back to runtime.GOMAXPROCS(0)). The engine's
// per-partition sub-seeding makes seeded results bit-identical at any
// width, so Workers only trades latency for cores.
func WithWorkers(n int) Option { return func(o *queryOptions) { o.workers = n } }

// WithTargetRelativeCI stops a progressive query once every SELECT item's
// confidence-interval half-width is at most eps times the magnitude of its
// estimate — e.g. 0.01 stops at ±1%. Ignored by Query.
func WithTargetRelativeCI(eps float64) Option {
	return func(o *queryOptions) { o.targetRelCI = eps }
}

// WithDeadline stops a progressive query at the first wave boundary after
// d of wall-clock time, whatever accuracy has been reached. Ignored by
// Query (use QueryContext with a deadline context to bound a one-shot
// query).
func WithDeadline(d time.Duration) Option {
	return func(o *queryOptions) { o.deadline = d }
}

// WithMaxFraction stops a progressive query once at least fraction f of
// the scanned relation has been read — a hard I/O budget. Values ≤ 0 or
// ≥ 1 disable the limit. Ignored by Query.
func WithMaxFraction(f float64) Option {
	return func(o *queryOptions) { o.maxFraction = f }
}

// WithWaveRows sets how many input rows a progressive query scans per
// wave (rounded up to whole engine partitions; default 8192). Smaller
// waves mean more frequent updates at slightly more overhead. Ignored by
// Query.
func WithWaveRows(n int) Option {
	return func(o *queryOptions) { o.waveRows = n }
}

// WithZoneSkipping enables or disables zone-map partition skipping for
// this query (default on). When a table carries zone maps (segment-backed
// tables always do), the fused scan kernel skips partitions whose min/max
// statistics prove the WHERE clause false for every row. Skipping never
// changes results — per-partition sub-seeded sampling makes a skipped
// partition's outcome independent of every other partition — so the switch
// exists for benchmarks and for verifying that invariant.
func WithZoneSkipping(on bool) Option { return func(o *queryOptions) { o.noZoneSkip = !on } }

func (db *DB) buildOptions(opts []Option) queryOptions {
	o := queryOptions{seed: 1, level: 0.95, systemBlockSize: 32}
	for _, fn := range opts {
		fn(&o)
	}
	if o.workers <= 0 {
		db.mu.RLock()
		o.workers = db.workers
		db.mu.RUnlock()
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Value is one SELECT-list result.
type Value struct {
	// Name is the output column name (alias, or a generated one).
	Name string
	// Kind is "SUM", "COUNT", "AVG", or "QUANTILE(...)".
	Kind string
	// Value is what the query returns: the estimate, or for QUANTILE
	// items the requested quantile of the estimator distribution.
	Value float64
	// Estimate is the unbiased point estimate of the true aggregate.
	Estimate float64
	// StdErr is the estimated standard deviation of the estimator.
	StdErr float64
	// CILow and CIHigh bound the aggregate at the query's confidence level.
	CILow, CIHigh float64
	// Approximate marks delta-method results (AVG), whose variance is a
	// first-order approximation rather than Theorem 1's exact form (§9).
	Approximate bool
	// Reliability grades the trustworthiness of the CI itself, "A"
	// (dependable) through "D" (decorative), from the variance
	// diagnostics: the relative standard error of the variance estimate,
	// the effective term count, and structural caveats (delta-method
	// variance, clamping). VarianceRSE is that relative standard error.
	// Both are set only when the query carries a trace (WithTrace or
	// EXPLAIN ANALYZE): diagnostics ride along with tracing.
	Reliability string
	VarianceRSE float64

	schema *lineage.Schema
	yhat   []float64
	cards  map[string]int
}

// Group is one GROUP BY bucket's results.
type Group struct {
	// Key is the group's value, rendered as text.
	Key string
	// Values holds one entry per SELECT item, estimated for this group.
	// Each group aggregate is SUM-like (f·1{group}), so every estimate
	// carries its own sound CI from the same top GUS.
	Values []Value
}

// Result is the outcome of an estimated query.
type Result struct {
	// Values holds one entry per SELECT item, in order. Empty for GROUP
	// BY queries (see Groups).
	Values []Value
	// Groups holds per-group results for GROUP BY queries, sorted by the
	// grouping column's value: numerically for Int/Float columns,
	// lexicographically for strings.
	Groups []Group
	// SampleRows is the number of tuples the sampled plan produced.
	SampleRows int
	// PlanText is the executed plan, rendered as a tree.
	PlanText string
	// TraceText is the SOA rewrite trace (Figure 4-style).
	TraceText string
	// GUSText prints the single top GUS operator's parameters.
	GUSText string
	// ExplainText is the rendered execution trace — the annotated plan
	// tree plus per-stage timings. Set only for EXPLAIN ANALYZE
	// statements; attach WithTrace and call Trace.Format for the same
	// text on any query.
	ExplainText string

	// scannedRows is the total base-table input cardinality, recorded for
	// the metrics layer without re-walking the plan.
	scannedRows int
	// skippedParts is how many input partitions zone maps let the engine
	// skip, recorded for the metrics layer.
	skippedParts int64
}

// Query parses, plans, executes and estimates a SQL aggregate query. It
// holds the catalog read-lock for its duration, so any number of queries
// may run concurrently while catalog writes wait.
func (db *DB) Query(sql string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), sql, opts...)
}

// QueryContext is Query with cooperative cancellation: the engine checks
// ctx between partition waves and aborts with ctx's error, so a slow
// query never outlives a caller that has gone away. Cancellation yields
// an error, never partial results.
//
// The statement's plan comes from the DB's LRU plan cache (invalidated on
// catalog writes), so re-running the same SQL skips parse and plan. SQL
// containing `?` placeholders cannot run here — bind values through
// Prepare/PrepareCached instead.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	o := db.buildOptions(opts)
	if path, ok := parseAttachSegment(sql); ok {
		o.sql = sql
		return db.execAttachSegment(ctx, path, o)
	}
	return db.execCached(ctx, sql, o, false)
}

// execCached runs sql through the plan cache, sampled or — with exact —
// with all sampling stripped.
func (db *DB) execCached(ctx context.Context, sql string, o queryOptions, exact bool) (*Result, error) {
	ppStart := time.Now()
	st, hit, err := db.prepareCached(sql)
	if err != nil {
		db.metrics.queriesErr.Inc()
		return nil, err
	}
	if o.trace == nil && st.tmpl.Explain() {
		o.trace = &obs.Trace{}
	}
	if o.trace != nil {
		recordPlanSpan(o.trace, time.Since(ppStart), hit)
	}
	return st.exec(ctx, nil, o, exact)
}

// Exact runs the query with all sampling stripped: the true answer, for
// validation and experiments.
func (db *DB) Exact(sql string, opts ...Option) (*Result, error) {
	return db.ExactContext(context.Background(), sql, opts...)
}

// ExactContext is Exact with cooperative cancellation (see QueryContext).
// It shares the plan cache with Query.
func (db *DB) ExactContext(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	return db.execCached(ctx, sql, db.buildOptions(opts), true)
}

// Robustness implements the §8 "database as a sample" analysis: the query
// must not contain TABLESAMPLE clauses; instead every base table is
// declared — via a GUS quasi-operator, with no execution-time sampling —
// to be a Bernoulli(survival) sample of a hypothetical complete database.
// Wide intervals flag queries whose answers are sensitive to losing a
// (1−survival) fraction of tuples.
func (db *DB) Robustness(sql string, survival float64, opts ...Option) (*Result, error) {
	if !(survival > 0 && survival <= 1) {
		return nil, fmt.Errorf("gus: survival rate %v outside (0,1]", survival)
	}
	o := db.buildOptions(opts)
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	for _, tr := range q.Tables {
		if tr.Kind != sqlparse.SampleNone {
			return nil, fmt.Errorf("gus: robustness analysis requires a query without TABLESAMPLE (table %q has one)", tr.Name)
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	planned, err := sqlparse.PlanQuery(q, catalog{db}, sqlparse.PlannerOptions{SystemBlockSize: o.systemBlockSize, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	var wrapErr error
	planned.Root = plan.WrapScans(planned.Root, func(s *plan.Scan) plan.Node {
		alias := s.Rel.Name()
		if s.Alias != "" {
			alias = s.Alias
		}
		g, err := core.Bernoulli(alias, survival)
		if err != nil && wrapErr == nil {
			wrapErr = err
		}
		return &plan.GUS{Input: s, G: g}
	})
	if wrapErr != nil {
		return nil, wrapErr
	}
	return db.run(context.Background(), planned, o)
}

// run executes a planned query on the engine and estimates every SELECT
// item. Must be called with db.mu read-held.
//
// run itself is the observability shim around runInner: in-flight gauge,
// latency/rows/fraction metrics, outcome counters, and — when a trace is
// attached — the final annotated plan tree. Every update on the success
// path is an atomic on a pre-resolved slot, so the disabled-trace path
// stays allocation-free.
func (db *DB) run(ctx context.Context, planned *sqlparse.Planned, o queryOptions) (*Result, error) {
	m := db.metrics
	m.inFlight.Add(1)
	start := time.Now()
	res, err := db.runInner(ctx, planned, o)
	secs := time.Since(start).Seconds()
	m.inFlight.Add(-1)
	m.querySecs.Observe(secs)
	if o.sm != nil {
		o.sm.seconds.Observe(secs)
	}
	if err != nil {
		m.queriesErr.Inc()
		if o.sm != nil {
			o.sm.errors.Inc()
		}
		return nil, err
	}
	m.queriesOK.Inc()
	if o.sm != nil {
		o.sm.queries.Inc()
	}
	m.rowsScanned.Add(uint64(res.scannedRows))
	m.sampleRows.Add(uint64(res.SampleRows))
	m.partsSkipped.Add(uint64(res.skippedParts))
	if res.scannedRows > 0 {
		m.sampleFrac.Observe(float64(res.SampleRows) / float64(res.scannedRows))
	}
	if o.trace != nil {
		finishTrace(o.trace, planned.Root, o.sql, o.shape)
	}
	return res, nil
}

func (db *DB) runInner(ctx context.Context, planned *sqlparse.Planned, o queryOptions) (*Result, error) {
	var compact int
	if o.trace != nil {
		compact = o.trace.Begin("gus-compact", "", -1)
	}
	analysis, err := plan.Analyze(planned.Root)
	if err != nil {
		return nil, err
	}
	if o.trace != nil {
		o.trace.End(compact, -1, -1)
		steps := len(analysis.Steps)
		o.trace.SetSpan(compact, func(s *obs.Span) {
			s.Label = fmt.Sprintf("%d rewrite steps", steps)
		})
	}
	eng := engine.New(engine.Config{Workers: o.workers, Context: ctx, Params: o.args, Prepared: o.prep, Trace: o.trace, DisableZoneSkip: o.noZoneSkip})
	sample, err := eng.ExecuteBatch(planned.Root, o.seed)
	if err != nil {
		return nil, err
	}
	// One-shot execution: the sample batch is dead once every aggregate
	// over it has been evaluated (the Result keeps only scalars and
	// strings), so recycle its buffers. Release no-ops on batches that
	// alias relation snapshots (bare scans) rather than owning storage.
	defer sample.Release()
	cards := map[string]int{}
	scanned := 0
	plan.Walk(planned.Root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			alias := s.Rel.Name()
			if s.Alias != "" {
				alias = s.Alias
			}
			// A synopsis-rewritten scan reads the synopsis's rows, but the
			// LOGICAL cardinality — what WOR variance prediction needs — is
			// the source table's, recorded on the scan at rewrite time.
			cards[alias] = s.Rel.Len()
			if s.FullRows > 0 {
				cards[alias] = s.FullRows
			}
			scanned += s.Rel.Len()
		}
	})
	res := &Result{
		SampleRows:   sample.Len(),
		PlanText:     plan.Format(planned.Root),
		TraceText:    analysis.FormatTrace(),
		GUSText:      analysis.G.String(),
		scannedRows:  scanned,
		skippedParts: eng.PartitionsSkipped(),
	}
	if planned.GroupBy != "" {
		gsp := o.trace.Begin("group", planned.GroupBy, -1)
		keys, parts, err := partitionBatchByColumn(sample, planned.GroupBy)
		if err != nil {
			return nil, err
		}
		o.trace.End(gsp, int64(sample.Len()), int64(len(keys)))
		for gi, key := range keys {
			g := Group{Key: key}
			for i, agg := range planned.Aggregates {
				v, err := db.evalAggregate(analysis.G, parts[gi], agg, i, o)
				if err != nil {
					return nil, fmt.Errorf("gus: group %q: %w", key, err)
				}
				v.cards = cards
				g.Values = append(g.Values, *v)
			}
			res.Groups = append(res.Groups, g)
		}
		return res, nil
	}
	for i, agg := range planned.Aggregates {
		v, err := db.evalAggregate(analysis.G, sample, agg, i, o)
		if err != nil {
			return nil, err
		}
		v.cards = cards
		res.Values = append(res.Values, *v)
	}
	return res, nil
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

func (db *DB) evalAggregate(g *core.Params, s *batch.Batch, agg sqlparse.Aggregate, idx int, o queryOptions) (*Value, error) {
	name := agg.Alias
	if name == "" {
		name = fmt.Sprintf("col%d", idx+1)
	}
	eopts := estimator.Options{
		MaxVarianceRows: o.maxVarianceRows,
		Seed:            o.seed + 0x5b0c,
		Workers:         o.workers,
		Trace:           o.trace,
		// Variance diagnostics ride along with tracing (never changing
		// results either way — see the bit-identity tests).
		Diagnostics: o.trace != nil,
	}
	f := agg.Arg
	if f == nil || agg.Kind == sqlparse.AggCount {
		f = expr.Int(1) // COUNT via SUM of 1 (§1)
	}
	v := &Value{Name: name, Kind: agg.Kind.String(), schema: g.Schema()}

	// QUANTILE answers follow the query's interval choice: normal
	// approximation by default, the distribution-free Cantelli bound under
	// WithInterval(ChebyshevInterval) — never a normal quantile glued to a
	// Chebyshev interval.
	ciMethod := estimator.Normal
	if o.interval == ChebyshevInterval {
		ciMethod = estimator.Chebyshev
	}

	switch agg.Kind {
	case sqlparse.AggSum, sqlparse.AggCount:
		er, err := estimator.EstimateBatch(g, s, f, eopts)
		if err != nil {
			return nil, err
		}
		v.Estimate = er.Estimate
		v.StdErr = er.StdDev()
		v.yhat = er.YHat
		if er.Diag != nil {
			v.Reliability, v.VarianceRSE = er.Diag.Grade, er.Diag.VarianceRSE
		}
		if agg.HasQuantile {
			v.Kind = fmt.Sprintf("QUANTILE(%s,%g)", agg.Kind, agg.Quantile)
			v.Value = er.QuantileWith(agg.Quantile, ciMethod)
		} else {
			v.Value = er.Estimate
		}
		v.CILow, v.CIHigh = er.CI(o.level, ciMethod)
	case sqlparse.AggAvg:
		est, sd, diag, err := avgDelta(g, s, agg.Arg, eopts)
		if err != nil {
			return nil, err
		}
		v.Estimate, v.StdErr, v.Approximate = est, sd, true
		if diag != nil {
			v.Reliability, v.VarianceRSE = diag.Grade, diag.VarianceRSE
		}
		if agg.HasQuantile {
			v.Kind = fmt.Sprintf("QUANTILE(AVG,%g)", agg.Quantile)
			switch ciMethod {
			case estimator.Chebyshev:
				v.Value = est + stats.CantelliQuantile(agg.Quantile)*sd
			default:
				v.Value = est + stats.NormalQuantile(agg.Quantile)*sd
			}
		} else {
			v.Value = est
		}
		switch ciMethod {
		case estimator.Chebyshev:
			h := stats.ChebyshevHalfWidth(o.level, sd)
			v.CILow, v.CIHigh = est-h, est+h
		default:
			h := stats.NormalHalfWidth(o.level, sd)
			v.CILow, v.CIHigh = est-h, est+h
		}
	default:
		return nil, fmt.Errorf("gus: unsupported aggregate %v", agg.Kind)
	}
	return v, nil
}

// avgDelta estimates AVG(f) = SUM(f)/COUNT(*) with a delta-method variance
// (§9: "good quality approximations can be provided, using for example the
// delta method"), delegating to the estimator's Ratio machinery, which
// estimates Cov(SUM, COUNT) from unbiased bilinear lineage moments.
func avgDelta(g *core.Params, s *batch.Batch, f expr.Expr, eopts estimator.Options) (est, sd float64, diag *estimator.Diagnostics, err error) {
	if f == nil {
		return 0, 0, nil, fmt.Errorf("gus: AVG(*) is not valid SQL")
	}
	r, err := estimator.RatioBatch(g, s, f, expr.Int(1), eopts)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("gus: AVG: %w", err)
	}
	return r.Estimate, r.StdDev(), r.Diag, nil
}

// Sampling describes one relation's sampling in a hypothetical design for
// PredictVariance.
type Sampling struct {
	// Kind is "bernoulli", "wor" or "none".
	Kind string
	// P is the Bernoulli probability (Kind "bernoulli").
	P float64
	// Rows is the WOR sample size (Kind "wor").
	Rows int
}

// Design maps base-table names (as used in the query) to hypothetical
// sampling methods.
type Design map[string]Sampling

// PredictVariance implements the §8 "choosing sampling parameters"
// application: using the unbiased ŷ_S moments recovered from THIS query's
// sample, it predicts the estimator variance that a different sampling
// design would have had on the same data — without drawing a new sample.
// Tables absent from the design are treated as unsampled.
func (v *Value) PredictVariance(design Design) (float64, error) {
	if v.yhat == nil {
		return 0, fmt.Errorf("gus: no moment estimates available for %s (only SUM/COUNT items support prediction)", v.Kind)
	}
	var g *core.Params
	for i := 0; i < v.schema.Len(); i++ {
		name := v.schema.Name(i)
		spec, ok := design[name]
		var p1 *core.Params
		var err error
		if !ok {
			p1 = core.Identity(lineage.MustSchema(name))
		} else {
			switch spec.Kind {
			case "bernoulli":
				p1, err = core.Bernoulli(name, spec.P)
			case "wor":
				n, found := v.cards[name]
				if !found {
					return 0, fmt.Errorf("gus: no cardinality recorded for %q", name)
				}
				k := spec.Rows
				if k > n {
					k = n
				}
				p1, err = core.WOR(name, k, n)
			case "none", "":
				p1 = core.Identity(lineage.MustSchema(name))
			default:
				return 0, fmt.Errorf("gus: unknown sampling kind %q", spec.Kind)
			}
			if err != nil {
				return 0, err
			}
		}
		if g == nil {
			g = p1
			continue
		}
		if g, err = core.Join(g, p1); err != nil {
			return 0, err
		}
	}
	// Report the same offending name on every run: the design map's
	// iteration order must not pick the error.
	names := make([]string, 0, len(design))
	for name := range design {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := v.schema.Index(name); !ok {
			return 0, fmt.Errorf("gus: design names %q, which the query does not touch", name)
		}
	}
	variance, err := g.Variance(v.yhat)
	if err != nil {
		return 0, err
	}
	if variance < 0 {
		variance = 0
	}
	return variance, nil
}

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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/relation"
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
	return t.db.maintainSynopses(t.rel, tup)
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
	return t.db.maintainSynopses(t.rel, tup)
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
// accept appends too, under snapshot isolation: the first copies the
// mapped columns to the heap, and the file is not modified.
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

	// The entry point's bind rewrite (set by Exact and Robustness, never by
	// Options): strip all sampling, or declare every base table a
	// Bernoulli(survival) sample. Neither selects synopsis serving.
	exact    bool
	survival float64

	// The statement being executed — its kernel snapshot, metric slots,
	// text and shape — and its bound parameter values; set by resolve,
	// never by Options.
	st   *Stmt
	args []relation.Value

	// trace receives per-stage spans when the caller attached one with
	// WithTrace (or the statement is EXPLAIN ANALYZE); nil on the common
	// path, where every span site reduces to one pointer test.
	trace *obs.Trace
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

// ciMethod is the estimator's interval construction for o.interval.
func (o *queryOptions) ciMethod() estimator.CIMethod {
	if o.interval == ChebyshevInterval {
		return estimator.Chebyshev
	}
	return estimator.Normal
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
	// the auditor's scan budget without re-walking the plan.
	scannedRows int
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
		return db.execAttachSegment(sql, path, o)
	}
	return db.query(ctx, stmtRef{sql: sql}, o)
}

// Exact runs the query with all sampling stripped: the true answer, for
// validation and experiments.
func (db *DB) Exact(sql string, opts ...Option) (*Result, error) {
	return db.ExactContext(context.Background(), sql, opts...)
}

// ExactContext is Exact with cooperative cancellation (see QueryContext).
// It shares the plan cache with Query.
func (db *DB) ExactContext(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	o := db.buildOptions(opts)
	o.exact = true
	return db.query(ctx, stmtRef{sql: sql}, o)
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
	o.survival = survival
	return db.query(context.Background(), stmtRef{sql: sql}, o)
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

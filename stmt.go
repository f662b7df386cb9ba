// Prepared statements and the DB-wide plan cache: the compile-once /
// execute-many half of the public API.
//
// db.Prepare(sql) parses, plans, GUS-structures and (lazily, on first
// execution per binding-kind signature) vector-compiles a statement ONCE;
// the returned *Stmt then executes any number of times with positional `?`
// parameters bound late — into comparison predicates, aggregate arguments
// and TABLESAMPLE clauses — plus per-call Options. Executing a *Stmt skips
// lexing, parsing, catalog resolution, predicate classification, join
// ordering and kernel compilation entirely; only the cheap per-execution
// work remains (binding the plan spine, re-deriving the GUS parameters
// from the bound sampling rates, running the engine, estimating).
//
// db.Query/Exact/QueryProgressive are thin wrappers over an internal
// bounded LRU plan cache keyed by normalized SQL, so unchanged callers get
// the same amortization transparently. Cache entries are tagged with the
// catalog generation and dropped after any catalog write (CreateTable,
// LoadCSV, AttachTPCH, Insert), so a write never serves a stale plan.
package gus

// Layering: a Stmt is what the executor's resolve stage (exec.go) yields —
// db.Query/Exact/Robustness/QueryProgressive look theirs up in the plan
// cache by normalized text, Stmt methods hand in the receiver — and every
// execution then runs the same bind → execute → meter stages, binding its
// values into a fresh plan per call.

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// Stmt is a prepared statement: one parse + plan, arbitrarily many
// executions. A Stmt is immutable after Prepare and safe for concurrent
// use — any number of goroutines may Query/Exact/QueryProgressive the same
// Stmt with different bindings, seeds and worker counts simultaneously,
// and every execution is bit-identical to running the equivalent
// literal-SQL query through db.Query with the same options.
//
// Placeholders are positional: bare `?` takes the next index, `?N`
// addresses parameter N (1-based) explicitly. They may appear anywhere a
// literal may: comparison and arithmetic expressions in WHERE, aggregate
// arguments in the SELECT list, and the numeric argument of TABLESAMPLE
// (? PERCENT | ? ROWS), BERNOULLI(?) and SYSTEM(?) — sampling-rate
// bindings re-derive the plan's GUS parameters on every execution, so the
// estimator's variance model always prices the rates actually bound.
type Stmt struct {
	db    *DB
	sql   string
	shape string // sqlparse.Normalize(sql): plan-cache key, metric and trace shape
	tmpl  *sqlparse.Template
	prep  *engine.Prepared
	// sm is this statement shape's pre-resolved metric slots, bound once at
	// Prepare so per-execution metric updates are pure atomics.
	sm *shapeMetrics
}

// Prepare compiles sql once for repeated execution. The statement is
// planned against the current catalog; tables it references must already
// exist. Unlike the implicit cache behind db.Query, a user-held Stmt is
// never invalidated: it keeps executing against the live table data
// (inserts are visible to later executions).
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.prepare(sql, sqlparse.Normalize(sql))
}

// prepare is Prepare given the statement's already-normalized text.
func (db *DB) prepare(sql, shape string) (*Stmt, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, err := sqlparse.PlanTemplate(q, catalog{db})
	if err != nil {
		return nil, err
	}
	return &Stmt{
		db:    db,
		sql:   sql,
		shape: shape,
		tmpl:  tmpl,
		prep:  engine.NewPrepared(),
		sm:    db.metrics.shapeSlot(shape),
	}, nil
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams reports how many positional placeholders the statement binds.
func (s *Stmt) NumParams() int { return s.tmpl.NumParams() }

// Query executes the prepared statement with the given positional
// parameter values and returns the estimated result, exactly as db.Query
// would for the literal-SQL equivalent. args holds one Go value per
// placeholder, in order — int/int64 (and friends) bind as SQL integers,
// float64 as floats, string as strings — and may additionally contain
// Option values (WithSeed, WithWorkers, WithInterval, …) anywhere, which
// apply to this call only.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Result, error) {
	ref, o := s.call(args)
	return s.db.query(ctx, ref, o)
}

// Exact executes the statement with all sampling stripped — the true
// answer for the bound parameters, mirroring db.Exact.
func (s *Stmt) Exact(ctx context.Context, args ...any) (*Result, error) {
	ref, o := s.call(args)
	o.exact = true
	return s.db.query(ctx, ref, o)
}

// call splits a Stmt call's arguments (see Query) into what the executor
// runs — the statement with its bound values, or the argument error that
// fails the call — and the call's options.
func (s *Stmt) call(args []any) (stmtRef, queryOptions) {
	vals, opts, err := splitArgs(args)
	return stmtRef{st: s, vals: vals, err: err}, s.db.buildOptions(opts)
}

// splitArgs separates a Stmt call's variadic arguments into positional
// parameter values and per-call options. Integer kinds widen to int64,
// float32 to float64; anything else (other than string and Option) is a
// bind error naming the offending position.
func splitArgs(args []any) ([]relation.Value, []Option, error) {
	var vals []relation.Value
	var opts []Option
	for i, a := range args {
		switch x := a.(type) {
		case Option:
			opts = append(opts, x)
			continue
		case nil:
			return nil, nil, fmt.Errorf("gus: argument %d: nil is not bindable (no NULLs in this dialect)", i+1)
		}
		v, err := bindValue(a)
		if err != nil {
			return nil, nil, fmt.Errorf("gus: argument %d: %w", i+1, err)
		}
		vals = append(vals, v)
	}
	return vals, opts, nil
}

// bindValue coerces one Go value to the relation.Value a literal of the
// same kind would have parsed to.
func bindValue(a any) (relation.Value, error) {
	switch x := a.(type) {
	case int:
		return relation.Int(int64(x)), nil
	case int8:
		return relation.Int(int64(x)), nil
	case int16:
		return relation.Int(int64(x)), nil
	case int32:
		return relation.Int(int64(x)), nil
	case int64:
		return relation.Int(x), nil
	case uint:
		if uint64(x) > math.MaxInt64 {
			return relation.Value{}, fmt.Errorf("uint value %d overflows int64", x)
		}
		return relation.Int(int64(x)), nil
	case uint8:
		return relation.Int(int64(x)), nil
	case uint16:
		return relation.Int(int64(x)), nil
	case uint32:
		return relation.Int(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return relation.Value{}, fmt.Errorf("uint64 value %d overflows int64", x)
		}
		return relation.Int(int64(x)), nil
	case float32:
		return relation.Float(float64(x)), nil
	case float64:
		return relation.Float(x), nil
	case string:
		return relation.String_(x), nil
	default:
		return relation.Value{}, fmt.Errorf("unsupported parameter type %T (bind int, float64 or string)", a)
	}
}

// ---------------------------------------------------------------------------
// DB-wide plan cache.

// DefaultPlanCacheSize is the LRU capacity of the implicit plan cache
// behind db.Query/Exact/QueryProgressive (distinct normalized statements).
const DefaultPlanCacheSize = 128

// PlanCacheStats is a snapshot of the implicit plan cache's counters.
type PlanCacheStats struct {
	// Hits and Misses count lookups since Open. A catalog write turns the
	// next lookup of every cached statement into a miss (invalidation).
	Hits, Misses uint64
	// Entries is the number of cached plans right now.
	Entries int
}

// PlanCacheStats reports hit/miss counters and the current entry count of
// the implicit plan cache.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return db.plans.stats()
}

// SetPlanCacheCap resizes the implicit plan cache (default
// DefaultPlanCacheSize). n ≤ 0 disables caching and clears it — every
// db.Query then re-prepares, the pre-cache behavior.
func (db *DB) SetPlanCacheCap(n int) {
	db.plans.resize(n)
}

// PrepareCached returns the DB's cached prepared statement for sql,
// preparing and caching it on a miss. This is the handle db.Query uses
// internally; callers that need to bind arguments to ad-hoc SQL (e.g. a
// query service) use it to share the same amortization and invalidation.
// The key is the normalized statement text, so formatting differences hit
// the same entry.
func (db *DB) PrepareCached(sql string) (*Stmt, error) {
	return db.PrepareCachedTrace(sql, nil)
}

// prepareCached additionally reports whether the statement came from the
// cache, for the trace's parse+plan span.
func (db *DB) prepareCached(sql string) (*Stmt, bool, error) {
	key := sqlparse.Normalize(sql)
	// The generation is read BEFORE planning: if a catalog write lands in
	// between, the entry is tagged with the older generation and the next
	// lookup discards it — stale plans are never served.
	gen := db.gen.Load()
	if st := db.plans.get(key, gen); st != nil {
		return st, true, nil
	}
	st, err := db.prepare(sql, key)
	if err != nil {
		return nil, false, err
	}
	db.plans.put(key, st, gen)
	return st, false, nil
}

// planCache is a mutex-guarded LRU of prepared statements, each tagged
// with the catalog generation it was planned under.
type planCache struct {
	mu           sync.Mutex
	cap          int
	lru          *list.List // front = most recently used; values are *cacheEntry
	m            map[string]*list.Element
	hits, misses atomic.Uint64
}

type cacheEntry struct {
	key string
	st  *Stmt
	gen uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), m: map[string]*list.Element{}}
}

func (c *planCache) get(key string, gen uint64) *Stmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if ok {
		ent := el.Value.(*cacheEntry)
		if ent.gen == gen {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return ent.st
		}
		// Catalog changed since this plan was built: invalidate.
		c.lru.Remove(el)
		delete(c.m, key)
	}
	c.misses.Add(1)
	return nil
}

func (c *planCache) put(key string, st *Stmt, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.m[key]; ok {
		el.Value = &cacheEntry{key: key, st: st, gen: gen}
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&cacheEntry{key: key, st: st, gen: gen})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
	}
}

func (c *planCache) resize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	for c.lru.Len() > max(0, n) {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.lru.Len()}
}

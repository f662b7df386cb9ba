// Materialized sample synopses: the public API over internal/synopsis.
//
// A synopsis is a per-table Bernoulli (or stratified-by-column) sample
// materialized once — through the same fused scan→sample pipeline queries
// run on — and registered with the planner. When a query asks for
// TABLESAMPLE BERNOULLI(p) of a table carrying a rate-q synopsis with
// p ≤ q, the planner serves the query FROM the synopsis: it rewrites the
// scan to read the (much smaller) synopsis relation and composes a
// residual Bernoulli(p/q) sampling operator on top. By Prop. 8 of the
// sampling algebra the composition compacts to exactly Bernoulli(p) over
// the base table, so estimates, variances and confidence intervals are
// computed from the SAME GUS parameters the full-scan plan would have —
// unbiasedness and CI coverage are preserved by construction, only the
// I/O shrinks. Queries the synopsis cannot soundly serve (WOR or SYSTEM
// sampling, rates above q, mismatched REPEATABLE seeds, synopses gone
// stale behind out-of-band appends) silently fall back to the full scan;
// gus_synopsis_misses_total says why.
//
// Synopses are maintained incrementally: rows appended through
// Table.Insert/InsertWithID are hash-tested and folded in at append time
// (coordinated sampling makes membership a pure function of the row's
// lineage id), so a maintained synopsis never goes stale. SaveSynopses /
// LoadSynopses persist them as .gussyn segment files beside a JSON
// manifest; loading verifies every row against its own membership hash
// and catches up over rows appended since the save.
package gus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/synopsis"
)

// SynopsisExt is the file extension SaveSynopses writes for synopsis
// segments, and SynopsisManifest the manifest file listing them.
const (
	SynopsisExt      = ".gussyn"
	SynopsisManifest = "synopses.json"
)

// SynopsisSpec describes a synopsis to materialize.
type SynopsisSpec struct {
	// Name registers the synopsis (unique among synopses).
	Name string
	// Table is the source table.
	Table string
	// Rate is the Bernoulli rate q ∈ (0,1]; for stratified synopses, the
	// default rate for strata not listed in Rates.
	Rate float64
	// Seed is the sampling method seed (0 = a fixed default). A query
	// using TABLESAMPLE BERNOULLI(p) REPEATABLE(r) under WithSeed(s) is
	// served deterministically from the synopsis only when its derived
	// seed uint64(r)^s equals this seed.
	Seed uint64
	// StratifyBy optionally names a column whose rendered value selects
	// the stratum; Rates maps stratum values to their rates. Queries are
	// served at rates up to the MINIMUM stratum rate.
	StratifyBy string
	Rates      map[string]float64
}

// SynopsisInfo describes one registered synopsis — what db.Synopses and
// gusserve's GET /tables report.
type SynopsisInfo struct {
	// Name and Table identify the synopsis and its source.
	Name  string
	Table string
	// GUS renders the synopsis's sampling claim, e.g. "Bernoulli(lineitem, 0.02)".
	GUS string
	// Rate is the (default) Bernoulli rate; MinRate the smallest stratum
	// rate — the largest query rate the synopsis can serve.
	Rate    float64
	MinRate float64
	// Seed is the sampling method seed.
	Seed uint64
	// StratifyBy and Rates are set for stratified synopses.
	StratifyBy string             `json:",omitempty"`
	Rates      map[string]float64 `json:",omitempty"`
	// Rows is the materialized sample's cardinality; SourceRows how many
	// source rows it covers. Stale reports whether the source has moved
	// past SourceRows (a stale synopsis never serves queries).
	Rows       int
	SourceRows int
	Stale      bool
	// Bytes estimates the synopsis's resident footprint.
	Bytes int64
	// Generation is the catalog generation at build/refresh time.
	Generation uint64
}

// WithSynopses enables or disables synopsis-serving for this query
// (default on). WithSynopses(false) forces the full-scan plan — the A/B
// switch for verifying that synopsis-served estimates agree with base
// ones (gusquery exposes it as -no-synopsis).
func WithSynopses(on bool) Option { return func(o *queryOptions) { o.noSynopsis = !on } }

// CreateSynopsis materializes and registers a synopsis. The build runs
// the fused scan→sample pipeline over the current table contents and
// serializes against in-flight queries like any catalog write; subsequent
// Table.Insert/InsertWithID appends maintain the synopsis incrementally.
func (db *DB) CreateSynopsis(spec SynopsisSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if spec.Name == "" {
		return fmt.Errorf("gus: synopsis needs a name")
	}
	if _, clash := db.tables[spec.Name]; clash {
		return fmt.Errorf("gus: synopsis name %q collides with a table", spec.Name)
	}
	src, ok := db.tables[spec.Table]
	if !ok {
		return fmt.Errorf("gus: unknown table %q", spec.Table)
	}
	s, err := synopsis.Build(src, synopsis.Spec{
		Name:     spec.Name,
		Rate:     spec.Rate,
		Seed:     spec.Seed,
		StratCol: spec.StratifyBy,
		Rates:    spec.Rates,
		Workers:  db.workers,
	}, db.gen.Load())
	if err != nil {
		return fmt.Errorf("gus: %w", err)
	}
	if err := db.syns.Add(s); err != nil {
		return fmt.Errorf("gus: %w", err)
	}
	return nil
}

// DropSynopsis unregisters a synopsis. Queries fall back to full scans.
func (db *DB) DropSynopsis(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.syns.Remove(name) {
		return fmt.Errorf("gus: unknown synopsis %q", name)
	}
	return nil
}

// RefreshSynopsis brings a stale synopsis back in sync with its source:
// rows appended since the last build are hash-tested and folded in (the
// coordinated decision, identical to what append-time maintenance would
// have done). A synopsis that cannot be repaired incrementally is rebuilt
// from scratch.
func (db *DB) RefreshSynopsis(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.syns.Get(name)
	if !ok {
		return fmt.Errorf("gus: unknown synopsis %q", name)
	}
	src, ok := db.tables[s.Table]
	if !ok {
		return fmt.Errorf("gus: synopsis %q references unknown table %q", name, s.Table)
	}
	if s.BuiltRows <= src.Len() {
		if err := s.CatchUp(src, db.gen.Load()); err != nil {
			return fmt.Errorf("gus: %w", err)
		}
		return nil
	}
	// The source shrank (e.g. replaced): rebuild under the same spec.
	fresh, err := synopsis.Build(src, synopsis.Spec{
		Name: s.Name, Rate: s.Rate, Seed: s.Seed, StratCol: s.StratCol, Rates: s.Rates, Workers: db.workers,
	}, db.gen.Load())
	if err != nil {
		return fmt.Errorf("gus: %w", err)
	}
	db.syns.Remove(name)
	return db.syns.Add(fresh)
}

// Synopses describes every registered synopsis, sorted by name.
func (db *DB) Synopses() []SynopsisInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	all := db.syns.All()
	out := make([]SynopsisInfo, 0, len(all))
	for _, s := range all {
		out = append(out, db.synopsisInfoLocked(s))
	}
	return out
}

// synopsisInfoLocked renders one synopsis's description; db.mu held.
func (db *DB) synopsisInfoLocked(s *synopsis.Synopsis) SynopsisInfo {
	info := SynopsisInfo{
		Name:       s.Name,
		Table:      s.Table,
		Rate:       s.Rate,
		MinRate:    s.MinRate,
		Seed:       s.Seed,
		StratifyBy: s.StratCol,
		Rates:      s.Rates,
		Rows:       s.Rel.Len(),
		SourceRows: s.BuiltRows,
		Bytes:      s.Bytes(),
		Generation: s.Generation,
	}
	if s.StratCol == "" {
		info.GUS = fmt.Sprintf("Bernoulli(%s, %g)", s.Table, s.Rate)
	} else {
		info.GUS = fmt.Sprintf("Bernoulli(%s, by %s, min %g)", s.Table, s.StratCol, s.MinRate)
	}
	src, ok := db.tables[s.Table]
	info.Stale = !ok || s.BuiltRows != src.Len()
	return info
}

// synopsisInfosForLocked lists a table's synopses; db.mu held.
func (db *DB) synopsisInfosForLocked(table string) []SynopsisInfo {
	syns := db.syns.ForTable(table)
	if len(syns) == 0 {
		return nil
	}
	out := make([]SynopsisInfo, 0, len(syns))
	for _, s := range syns {
		out = append(out, db.synopsisInfoLocked(s))
	}
	return out
}

// maintainSynopses folds tup, the just-appended last row of rel, into
// every synopsis over it. Called with db.mu write-held, after a successful
// append.
func (db *DB) maintainSynopses(rel *relation.Relation, tup relation.Tuple) error {
	if db.syns.Len() == 0 {
		return nil
	}
	n := rel.Len()
	return db.syns.OnAppend(rel.Name(), rel.ID(n-1), tup, n)
}

// ---------------------------------------------------------------------------
// Planner integration: the subsumption rewrite.

// applySynopses rewrites every sampled base-table scan the registry can
// serve: Sample(m, Scan(T)) becomes Sample(residual, GUS(Bernoulli(q),
// Scan(synopsis))) when a synopsis over T subsumes m. The GUS node asserts
// what the synopsis IS (a Bernoulli(q) sample of T); the residual performs
// the remaining Bernoulli(p/q); compaction proves the stack equals the
// original Bernoulli(p). Called by bind with db.mu read-held, on the
// freshly bound plan — cached templates stay synopsis-agnostic.
func (db *DB) applySynopses(n plan.Node, o *queryOptions) plan.Node {
	return plan.Rewrite(n, func(n plan.Node) plan.Node {
		if s, ok := n.(*plan.Sample); ok {
			if scan, ok := s.Input.(*plan.Scan); ok && scan.Synopsis == "" {
				if repl := db.trySynopsis(s, scan, o); repl != nil {
					return repl
				}
			}
		}
		return n
	})
}

// missRank orders miss reasons by specificity, so a query probing several
// synopses reports the most actionable one ("rate" beats "method").
var missRank = map[string]int{"rate": 4, "seed": 3, "stale": 2, "method": 1}

// trySynopsis attempts to serve one sampled scan from a synopsis,
// returning the rewritten subtree or nil for fall-back. Every outcome
// lands in gus_synopsis_hits_total / gus_synopsis_misses_total{reason}
// and, when a trace rides along, in a "synopsis" span.
func (db *DB) trySynopsis(s *plan.Sample, scan *plan.Scan, o *queryOptions) plan.Node {
	srcName, alias := scan.Rel.Name(), scan.LineageName()
	miss := func(reason string) plan.Node {
		db.metrics.synMisses.With(reason).Inc()
		if o.trace != nil {
			sp := o.trace.Begin("synopsis", fmt.Sprintf("miss %s: %s", alias, reason), -1)
			o.trace.End(sp, -1, -1)
		}
		return nil
	}
	if o.noSynopsis {
		return miss("disabled")
	}
	cands := db.syns.ForTable(srcName)
	if len(cands) == 0 {
		return miss("none")
	}
	srcLen := scan.Rel.Len()
	var best *synopsis.Synopsis
	var bestD synopsis.Decision
	reason := "method"
	for _, syn := range cands {
		d := syn.Subsumes(s.Method, alias, srcLen)
		if !d.OK {
			if missRank[d.Reason] > missRank[reason] {
				reason = d.Reason
			}
			continue
		}
		if best == nil || syn.Rel.Len() < best.Rel.Len() {
			best, bestD = syn, d
		}
	}
	if best == nil {
		return miss(reason)
	}
	g, err := core.Bernoulli(alias, best.MinRate)
	if err != nil {
		return miss("method")
	}
	db.metrics.synHits.Inc()
	if o.trace != nil {
		mode := "fresh"
		if bestD.Nested {
			mode = "nested"
		}
		sp := o.trace.Begin("synopsis", fmt.Sprintf("hit %s serves %s: Bernoulli(%g) ⊑ Bernoulli(%g), %s residual", best.Name, alias, bestD.P, best.MinRate, mode), -1)
		o.trace.End(sp, int64(srcLen), int64(best.Rel.Len()))
	}
	return &plan.Sample{
		Input: &plan.GUS{
			Input: &plan.Scan{Rel: best.Rel, Alias: alias, Synopsis: best.Name, FullRows: srcLen},
			G:     g,
		},
		Method: &sampling.Residual{Rel: alias, P: bestD.P, Q: best.MinRate, Hash: best.HashSeed, Nested: bestD.Nested},
	}
}

// ---------------------------------------------------------------------------
// Persistence.

// SaveSynopses writes every registered synopsis to dir: one
// <name>.gussyn segment file per synopsis plus a synopses.json manifest
// recording each one's sampling claim (table, rate(s), seed, covered
// rows). Like Save, files land atomically under their final names.
func (db *DB) SaveSynopses(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("gus: save synopses: %w", err)
	}
	db.mu.RLock()
	all := db.syns.All()
	manifests := make([]synopsis.Manifest, 0, len(all))
	rels := make([]*relation.Relation, 0, len(all))
	for _, s := range all {
		manifests = append(manifests, s.Manifest())
		rels = append(rels, s.Rel)
	}
	db.mu.RUnlock()
	for i, rel := range rels {
		path := filepath.Join(dir, manifests[i].Name+SynopsisExt)
		if _, err := segment.Write(path, rel); err != nil {
			return fmt.Errorf("gus: save synopsis %q: %w", manifests[i].Name, err)
		}
	}
	data, err := json.MarshalIndent(manifests, "", "  ")
	if err != nil {
		return fmt.Errorf("gus: save synopses: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, SynopsisManifest), append(data, '\n'), 0o644)
}

// LoadSynopses attaches every synopsis listed in dir's manifest. Each
// segment is mmapped (not copied), verified row by row against its own
// membership hash — a manifest paired with the wrong segment cannot load —
// and caught up over any rows appended to its source since the save.
// Sources must already be attached; a synopsis whose source is missing
// fails the load.
func (db *DB) LoadSynopses(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, SynopsisManifest))
	if err != nil {
		return fmt.Errorf("gus: load synopses: %w", err)
	}
	var manifests []synopsis.Manifest
	if err := json.Unmarshal(data, &manifests); err != nil {
		return fmt.Errorf("gus: load synopses: %w", err)
	}
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Name < manifests[j].Name })
	for _, m := range manifests {
		if err := db.loadSynopsis(dir, m); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) loadSynopsis(dir string, m synopsis.Manifest) error {
	t, err := segment.Open(m.Name, filepath.Join(dir, m.Name+SynopsisExt))
	if err != nil {
		return fmt.Errorf("gus: load synopsis %q: %w", m.Name, err)
	}
	s, err := synopsis.FromManifest(m, t.Rel)
	if err != nil {
		t.Close()
		return fmt.Errorf("gus: %w", err)
	}
	if err := s.Verify(); err != nil {
		t.Close()
		return fmt.Errorf("gus: %w", err)
	}
	db.mu.Lock()
	src, ok := db.tables[s.Table]
	if !ok {
		db.mu.Unlock()
		t.Close()
		return fmt.Errorf("gus: synopsis %q references unknown table %q (attach it first)", s.Name, s.Table)
	}
	if err := s.CatchUp(src, db.gen.Load()); err != nil {
		db.mu.Unlock()
		t.Close()
		return fmt.Errorf("gus: %w", err)
	}
	if err := db.syns.Add(s); err != nil {
		db.mu.Unlock()
		t.Close()
		return fmt.Errorf("gus: %w", err)
	}
	db.mu.Unlock()
	db.segs.add(t)
	return nil
}

// Package synopsis implements materialized sample synopses: per-table
// Bernoulli (and stratified-by-column) samples built once, kept resident
// (or persisted as segment files), incrementally maintained on append, and
// offered to the planner as cheaper scan sources.
//
// Inclusion is decided by the coordinated per-row hash the lineage-hash
// sampling method already uses: tuple id belongs to a rate-q synopsis iff
// HashID(hashSeed, id) < q. Coordination (Cohen & Kaplan's line of work)
// buys three properties for free:
//
//   - Nesting: the rate-p subset of a rate-q synopsis (p ≤ q) is EXACTLY
//     the rate-p coordinated sample of the base table — so a query's
//     Bernoulli(p) sample can be cut from the synopsis without rescanning.
//   - Append maintenance: a newly appended row's membership is a pure
//     function of its lineage id, so the synopsis extends in O(1) per
//     append with no resampling.
//   - Cross-generation stability: successive generations of one table (or
//     synopses over different tables sharing a seed scheme) agree on every
//     common id, keeping time-over-time comparisons tight.
//
// The GUS algebra makes serving a query from a synopsis safe: if the
// query's compacted quasi-operator is Bernoulli(p) and the synopsis's is
// Bernoulli(q) with p ≤ q, Prop. 8 composes the residual Bernoulli(p/q)
// on top of the synopsis scan and the stacked process is Bernoulli(p)
// over the base table. Subsumes makes that check; everything else falls
// back to the full scan.
package synopsis

import (
	"fmt"
	"sort"

	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
)

// DefaultSeed is the method seed synopses are built with unless the caller
// picks one (e.g. to coordinate with a REPEATABLE query's seed).
const DefaultSeed = 0x5a9b0c1d2e3f4a5b

// Spec describes a synopsis to build.
type Spec struct {
	// Name is the synopsis's registered name (also its relation name).
	Name string
	// Rate is the Bernoulli sampling rate q ∈ (0, 1]. For stratified
	// synopses it is the default rate for strata absent from Rates.
	Rate float64
	// Seed is the method seed; the per-row hash seed is
	// sampling.RelSeed(Seed, table), matching what a lineage-hash query
	// with the same method seed would use. Zero means DefaultSeed.
	Seed uint64
	// StratCol, when non-empty, names the column whose rendered value
	// picks the stratum; Rates maps stratum values to boosted (or
	// lowered) rates. Every rate must lie in (0, 1].
	StratCol string
	Rates    map[string]float64
	// Workers sets the build's engine parallelism (0 = GOMAXPROCS).
	Workers int
}

// Synopsis is one materialized sample over one source table. Mutating
// methods (Build's result, Extend, CatchUp) must be serialized with
// readers by the owning catalog's lock; the gus.DB holds its write lock
// across all of them.
type Synopsis struct {
	Name  string
	Table string
	// Rate is the uniform (or default-stratum) rate; MinRate the smallest
	// rate across strata — the conservative GUS claim Subsumes tests
	// against. Uniform synopses have MinRate == Rate.
	Rate    float64
	MinRate float64
	// Seed is the method seed, HashSeed the folded per-row hash seed
	// sampling.RelSeed(Seed, Table).
	Seed     uint64
	HashSeed uint64
	// StratCol/Rates mirror the Spec ("" / nil for uniform). stratIdx is
	// the column's index in the schema.
	StratCol string
	Rates    map[string]float64
	stratIdx int
	// Rel is the materialized sample: same schema as the source, original
	// lineage IDs, rows in source order.
	Rel *relation.Relation
	// BuiltRows is how many source rows the synopsis covers. Fresh means
	// BuiltRows == source.Len(); anything else is stale and Subsumes
	// refuses to serve queries from it.
	BuiltRows int
	// Generation records the catalog generation at build/refresh time,
	// for operator-facing listings.
	Generation uint64
}

// rateFor returns the sampling rate for one source tuple.
func (s *Synopsis) rateFor(tup relation.Tuple) float64 {
	if s.StratCol == "" {
		return s.Rate
	}
	if r, ok := s.Rates[tup[s.stratIdx].AsString()]; ok {
		return r
	}
	return s.Rate
}

// keeps is the coordinated membership decision for one source tuple.
func (s *Synopsis) keeps(id lineage.TupleID, tup relation.Tuple) bool {
	return stats.HashID(s.HashSeed, uint64(id)) < s.rateFor(tup)
}

// Build materializes a synopsis over src. Uniform synopses run through the
// engine's fused scan→sample pipeline (the same kernel queries use);
// stratified synopses filter the source directly, since the per-row rate
// depends on the stratum column. Either way membership is the coordinated
// hash, so the two paths agree wherever their rates do.
func Build(src *relation.Relation, spec Spec, generation uint64) (*Synopsis, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("synopsis: empty name")
	}
	if !(spec.Rate > 0 && spec.Rate <= 1) {
		return nil, fmt.Errorf("synopsis: rate %v outside (0,1]", spec.Rate)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	s := &Synopsis{
		Name:     spec.Name,
		Table:    src.Name(),
		Rate:     spec.Rate,
		MinRate:  spec.Rate,
		Seed:     seed,
		HashSeed: sampling.RelSeed(seed, src.Name()),
		StratCol: spec.StratCol,
	}
	if spec.StratCol != "" {
		idx, ok := src.Schema().Index(spec.StratCol)
		if !ok {
			return nil, fmt.Errorf("synopsis: table %q has no column %q", src.Name(), spec.StratCol)
		}
		s.stratIdx = idx
		s.Rates = make(map[string]float64, len(spec.Rates))
		// Sorted validation order keeps the reported stratum deterministic
		// when several rates are bad.
		for _, k := range sortedKeys(spec.Rates) {
			r := spec.Rates[k]
			if !(r > 0 && r <= 1) {
				return nil, fmt.Errorf("synopsis: stratum %q rate %v outside (0,1]", k, r)
			}
			s.Rates[k] = r
			if r < s.MinRate {
				s.MinRate = r
			}
		}
	}
	rel, err := relation.New(spec.Name, src.Schema())
	if err != nil {
		return nil, fmt.Errorf("synopsis: %w", err)
	}
	s.Rel = rel
	if spec.StratCol == "" {
		if err := s.buildFused(src, spec.Workers); err != nil {
			return nil, err
		}
	} else {
		for i, n := 0, src.Len(); i < n; i++ {
			id, tup := src.ID(i), src.Row(i)
			if s.keeps(id, tup) {
				if err := rel.AppendWithID(id, tup); err != nil {
					return nil, fmt.Errorf("synopsis: %w", err)
				}
			}
		}
	}
	s.BuiltRows = src.Len()
	s.Generation = generation
	return s, nil
}

// buildFused draws the uniform sample through the engine's fused columnar
// scan→sample kernel — the exact pipeline queries run on.
func (s *Synopsis) buildFused(src *relation.Relation, workers int) error {
	m, err := sampling.NewLineageHash(s.Seed, map[string]float64{src.Name(): s.Rate})
	if err != nil {
		return fmt.Errorf("synopsis: %w", err)
	}
	eng := engine.New(engine.Config{Workers: workers})
	b, err := eng.ExecuteBatch(&plan.Sample{Input: &plan.Scan{Rel: src}, Method: m}, 0)
	if err != nil {
		return fmt.Errorf("synopsis: build %q: %w", s.Name, err)
	}
	rows := b.ToRows()
	for _, row := range rows.Data {
		if err := s.Rel.AppendWithID(row.Lin[0], row.Vals); err != nil {
			return fmt.Errorf("synopsis: %w", err)
		}
	}
	return nil
}

// OnAppend maintains the synopsis for one row just appended to the source:
// if the synopsis was fresh before the append, the row's coordinated
// membership is decided and the cover count advances. A synopsis that was
// already stale stays stale (CatchUp repairs it). newLen is the source's
// length AFTER the append.
func (s *Synopsis) OnAppend(id lineage.TupleID, tup relation.Tuple, newLen int) error {
	if s.BuiltRows != newLen-1 {
		return nil
	}
	if s.keeps(id, tup) {
		if err := s.Rel.AppendWithID(id, tup); err != nil {
			return fmt.Errorf("synopsis %q: %w", s.Name, err)
		}
	}
	s.BuiltRows = newLen
	return nil
}

// CatchUp extends the synopsis over source rows appended since BuiltRows
// (rows never move or vanish, so positions below BuiltRows are covered).
// A synopsis recording MORE rows than the source has cannot be repaired
// incrementally and is left stale; rebuild it instead.
func (s *Synopsis) CatchUp(src *relation.Relation, generation uint64) error {
	n := src.Len()
	if s.BuiltRows > n {
		return fmt.Errorf("synopsis %q: covers %d rows but table %q has %d (rebuild required)",
			s.Name, s.BuiltRows, s.Table, n)
	}
	for i := s.BuiltRows; i < n; i++ {
		id, tup := src.ID(i), src.Row(i)
		if s.keeps(id, tup) {
			if err := s.Rel.AppendWithID(id, tup); err != nil {
				return fmt.Errorf("synopsis %q: %w", s.Name, err)
			}
		}
	}
	s.BuiltRows = n
	s.Generation = generation
	return nil
}

// Verify checks that every materialized row passes its own membership
// test — the integrity gate for synopses loaded from disk, catching a
// manifest paired with the wrong segment (or tampered rates/seeds).
func (s *Synopsis) Verify() error {
	for i, n := 0, s.Rel.Len(); i < n; i++ {
		id, tup := s.Rel.ID(i), s.Rel.Row(i)
		if !s.keeps(id, tup) {
			return fmt.Errorf("synopsis %q: row %d (id %d) fails its membership hash — synopsis does not match its manifest", s.Name, i, id)
		}
	}
	return nil
}

// Bytes estimates the synopsis's resident footprint: 8 bytes per numeric
// cell and lineage id, string lengths for string cells.
func (s *Synopsis) Bytes() int64 {
	snap := s.Rel.Snapshot()
	n := snap.Rows
	var b int64 = int64(n) * 8 // lineage ids
	for _, c := range snap.Cols {
		if c.Kind != relation.KindString {
			b += int64(n) * 8
			continue
		}
		for _, v := range c.Strs {
			b += int64(len(v)) + 16
		}
	}
	return b
}

// Registry indexes a catalog's synopses by name and by source table. It
// has no internal locking: the owning DB guards it with the same lock
// that guards the table catalog (reads under RLock, mutation under Lock).
type Registry struct {
	byName map[string]*Synopsis
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*Synopsis{}} }

// Len reports how many synopses are registered.
func (r *Registry) Len() int { return len(r.byName) }

// Add registers a synopsis, rejecting duplicate names.
func (r *Registry) Add(s *Synopsis) error {
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("synopsis %q already exists", s.Name)
	}
	r.byName[s.Name] = s
	return nil
}

// Remove drops a synopsis by name, reporting whether it existed.
func (r *Registry) Remove(name string) bool {
	_, ok := r.byName[name]
	delete(r.byName, name)
	return ok
}

// Get returns a synopsis by name.
func (r *Registry) Get(name string) (*Synopsis, bool) {
	s, ok := r.byName[name]
	return s, ok
}

// ForTable lists the synopses over one source table, sorted by name so
// planning is deterministic.
func (r *Registry) ForTable(table string) []*Synopsis {
	var out []*Synopsis
	for _, s := range r.byName {
		if s.Table == table {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All lists every synopsis, sorted by name.
func (r *Registry) All() []*Synopsis {
	out := make([]*Synopsis, 0, len(r.byName))
	for _, s := range r.byName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OnAppend runs the append-maintenance hook for every synopsis over
// table, in name order so a multi-synopsis failure reports the same
// synopsis on every run.
func (r *Registry) OnAppend(table string, id lineage.TupleID, tup relation.Tuple, newLen int) error {
	for _, s := range r.ForTable(table) {
		if err := s.OnAppend(id, tup, newLen); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns a map's string keys in sorted order, for
// deterministic validation and reporting loops.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

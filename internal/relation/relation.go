package relation

import (
	"fmt"
	"sync/atomic"

	"github.com/sampling-algebra/gus/internal/lineage"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of uniquely named columns.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a column schema, rejecting duplicate or empty names.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: empty column name at position %d", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns column i.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Concat returns the column schema of a join result: s's columns followed
// by t's. Column names must remain unique.
func (s *Schema) Concat(t *Schema) (*Schema, error) {
	return NewSchema(append(s.Columns(), t.cols...)...)
}

// Equal reports whether the schemas have identical columns in order.
func (s *Schema) Equal(t *Schema) bool {
	if len(s.cols) != len(t.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != t.cols[i] {
			return false
		}
	}
	return true
}

// Tuple is one row of values, positionally matching a Schema.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Storage modes a Relation reports through StorageMode.
const (
	StorageResident = "resident"
	StorageSegment  = "segment"
)

// Relation is a named, materialized base relation. Every tuple carries a
// lineage.TupleID unique within the relation — the paper's §6.2 lineage:
// row IDs if the engine has them, otherwise an injective encoding of the
// primary key.
//
// Storage is one set of typed, growable columns in the Snapshot layout
// plus the lineage-ID column. Appends write each value into its column in
// place; a Snapshot is a view of the first Rows rows whose slices cannot
// grow into the relation's memory, so in-flight readers keep the snapshot
// they started with (snapshot isolation). A segment-backed relation starts
// from the mapped columns; its first append copies them to the heap.
type Relation struct {
	name    string
	schema  *Schema
	mode    string // StorageResident or StorageSegment
	cols    []ColumnSlice
	ids     []lineage.TupleID
	dictIdx []map[string]int32 // per string column: value → dictionary code, built on first append
	zones   Zones              // sealed zones of the complete partitions
	nextID  lineage.TupleID
	snap    atomic.Pointer[Snapshot] // cached view; nil after appends
}

// New creates an empty relation with the given name and column schema.
func New(name string, schema *Schema) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	r := &Relation{name: name, schema: schema, mode: StorageResident, nextID: 1,
		cols: make([]ColumnSlice, schema.Len()), ids: []lineage.TupleID{},
		dictIdx: make([]map[string]int32, schema.Len()),
		zones:   Zones{ZoneRows: DefaultZoneRows, NCols: schema.Len()}}
	for j := range r.cols {
		c := &r.cols[j]
		switch c.Kind = schema.Col(j).Kind; c.Kind {
		case KindInt:
			c.Ints = []int64{}
		case KindFloat:
			c.Floats = []float64{}
		default:
			c.Strs, c.Codes, c.Dict = []string{}, []int32{}, &StrDict{}
		}
	}
	return r, nil
}

// FromSnapshot creates a relation whose columns start as an immutable
// columnar image — how segment-backed tables come to life. snap's column
// count and kinds must match schema; its slices are aliased, never copied
// (they may point into mapped memory), and clamped to snap.Rows so that
// the first append copies them to the heap instead of writing into them.
// Snapshot returns snap itself until that append.
func FromSnapshot(name string, schema *Schema, snap *Snapshot, mode string) (*Relation, error) {
	r, err := New(name, schema)
	if err != nil {
		return nil, err
	}
	if len(snap.Cols) != schema.Len() {
		return nil, fmt.Errorf("relation %s: snapshot has %d columns, schema has %d", name, len(snap.Cols), schema.Len())
	}
	for j, c := range snap.Cols {
		if c.Kind != schema.Col(j).Kind {
			return nil, fmt.Errorf("relation %s: column %s is %s in snapshot, %s in schema",
				name, schema.Col(j).Name, c.Kind, schema.Col(j).Kind)
		}
		r.cols[j] = c.view(snap.Rows)
	}
	if len(snap.IDs) != snap.Rows {
		return nil, fmt.Errorf("relation %s: snapshot has %d lineage IDs for %d rows", name, len(snap.IDs), snap.Rows)
	}
	if mode != "" {
		r.mode = mode
	}
	r.ids = snap.IDs[:snap.Rows:snap.Rows]
	for _, id := range r.ids {
		if id >= r.nextID {
			r.nextID = id + 1
		}
	}
	if z := snap.Zones; z != nil && z.ZoneRows == DefaultZoneRows && z.NCols == schema.Len() {
		// Reuse the complete partitions' zones; the writer seals the rest.
		if sealed := snap.Rows / DefaultZoneRows * z.NCols; sealed <= len(z.Z) {
			r.zones.Z = z.Z[:sealed:sealed]
		}
	}
	r.snap.Store(snap)
	return r, nil
}

// StorageMode reports where the relation's base image lives:
// StorageResident (Go heap) or StorageSegment (on-disk mmap segment).
func (r *Relation) StorageMode() string { return r.mode }

// MustNew is New that panics on error.
func MustNew(name string, schema *Schema) *Relation {
	r, err := New(name, schema)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's column schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.ids) }

// Row returns tuple i, boxed on access: the serial reference executor
// reads rows; the engine reads the typed columns.
func (r *Relation) Row(i int) Tuple {
	t := make(Tuple, len(r.cols))
	for j, c := range r.cols {
		switch c.Kind {
		case KindInt:
			t[j] = Int(c.Ints[i])
		case KindFloat:
			t[j] = Float(c.Floats[i])
		default:
			t[j] = String_(c.Strs[i])
		}
	}
	return t
}

// ID returns the lineage ID of tuple i.
func (r *Relation) ID(i int) lineage.TupleID { return r.ids[i] }

// Append adds a tuple with an automatically assigned sequential ID.
func (r *Relation) Append(t Tuple) error {
	id := r.nextID
	r.nextID++
	return r.AppendWithID(id, t)
}

// AppendWithID adds a tuple with a caller-chosen lineage ID (e.g. a
// primary-key encoding like l_orderkey*10+l_linenumber from §6.2).
// IDs must be unique; uniqueness is the caller's contract and is verified
// lazily by Validate. Each value is written into its typed column, and a
// partition the row completes has its zones sealed here, so Snapshot
// computes only the partial tail partition's.
func (r *Relation) AppendWithID(id lineage.TupleID, t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple has %d values, schema has %d columns", r.name, len(t), r.schema.Len())
	}
	for i, v := range t {
		if v.Kind() != r.schema.Col(i).Kind {
			return fmt.Errorf("relation %s: column %s expects %s, got %s",
				r.name, r.schema.Col(i).Name, r.schema.Col(i).Kind, v.Kind())
		}
	}
	for j, v := range t {
		c := &r.cols[j]
		switch c.Kind {
		case KindInt:
			c.Ints = append(c.Ints, v.i)
		case KindFloat:
			c.Floats = append(c.Floats, v.f)
		default:
			code := r.code(j, v.s)
			c.Codes = append(c.Codes, code)
			c.Strs = append(c.Strs, c.Dict.Strs[code])
		}
	}
	if id >= r.nextID {
		r.nextID = id + 1
	}
	r.ids = append(r.ids, id)
	if n := len(r.ids); n%DefaultZoneRows == 0 {
		r.zones.extend(r.cols, n)
	}
	r.snap.Store(nil)
	return nil
}

// code returns s's code in string column j's append-only dictionary,
// adding s if it is new.
func (r *Relation) code(j int, s string) int32 {
	d := r.cols[j].Dict
	idx := r.dictIdx[j]
	if idx == nil {
		idx = make(map[string]int32, len(d.Strs)+64)
		for c, v := range d.Strs {
			idx[v] = int32(c)
		}
		r.dictIdx[j] = idx
	}
	c, ok := idx[s]
	if !ok {
		c = int32(len(d.Strs))
		idx[s] = c
		d.Strs = append(d.Strs, s)
		d.Hashes = append(d.Hashes, StringHash(s))
	}
	return c
}

// MustAppend is Append that panics on error; for tests and generators.
func (r *Relation) MustAppend(vals ...Value) {
	if err := r.Append(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Validate checks the invariants that the estimator relies on, most
// importantly that lineage IDs are unique within the relation.
func (r *Relation) Validate() error {
	seen := make(map[lineage.TupleID]struct{}, len(r.ids))
	for i, id := range r.ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("relation %s: duplicate lineage ID %d at row %d", r.name, id, i)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// SumFloat sums the named numeric column over all tuples — a convenience
// for computing exact ground truths in tests and experiments.
func (r *Relation) SumFloat(col string) (float64, error) {
	idx, ok := r.schema.Index(col)
	if !ok {
		return 0, fmt.Errorf("relation %s: no column %q", r.name, col)
	}
	var sum float64
	for i, n := 0, r.Len(); i < n; i++ {
		f, err := r.Row(i)[idx].AsFloat()
		if err != nil {
			return 0, fmt.Errorf("relation %s: %v", r.name, err)
		}
		sum += f
	}
	return sum, nil
}

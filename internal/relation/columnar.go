package relation

import (
	"github.com/sampling-algebra/gus/internal/lineage"
)

// ColumnSlice is one column of a Snapshot in flat typed storage: exactly
// one of Ints, Floats or Strs is non-nil, selected by Kind. Flat arrays are
// what the vectorized execution engine consumes — no per-value boxing.
//
// String columns additionally carry a dictionary encoding, built as rows
// are appended: Codes[i] indexes Dict.Strs, and Dict.Hashes holds each
// distinct value's canonical join-key hash — so keyed operators hash and
// compare string rows without touching the string bytes.
type ColumnSlice struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Codes  []int32
	Dict   *StrDict
}

// Snapshot is a columnar image of a relation: per-column typed slices plus
// the parallel lineage-ID column. It is immutable; readers must not write
// through its slices (which may alias memory-mapped segment files).
type Snapshot struct {
	Cols []ColumnSlice
	IDs  []lineage.TupleID
	Rows int
	// Zones is the per-partition zone map (min/max/null-count per column
	// at DefaultZoneRows granularity), sealed partition by partition as
	// rows are appended or loaded from a segment footer. The engine uses
	// it to skip partitions a predicate provably rejects; nil disables
	// skipping.
	Zones *Zones
}

// Snapshot returns the relation's columnar image: views of its first Len()
// rows, clamped to that length and capacity so appends never write into
// memory a reader holds, with their own dictionary headers and a zone map
// of the sealed zones plus the partial tail partition's. The view is
// cached until the next append; concurrent readers may each build one, in
// which case either (identical) result is kept. Callers must hold whatever
// lock serializes reads against writes (the DB's RWMutex in the public
// API).
func (r *Relation) Snapshot() *Snapshot {
	if s := r.snap.Load(); s != nil {
		return s
	}
	n := len(r.ids)
	s := &Snapshot{Cols: make([]ColumnSlice, len(r.cols)), IDs: r.ids[:n:n], Rows: n}
	for j, c := range r.cols {
		s.Cols[j] = c.view(n)
	}
	z := r.zones
	z.Z = append(make([]Zone, 0, (n+z.ZoneRows-1)/z.ZoneRows*z.NCols), z.Z...)
	z.extend(s.Cols, n)
	s.Zones = &z
	r.snap.Store(s)
	return s
}

// view returns c's first n rows with every slice clamped to n, and a
// string column's dictionary under a header of its own, clamped too.
func (c ColumnSlice) view(n int) ColumnSlice {
	v := ColumnSlice{Kind: c.Kind}
	switch c.Kind {
	case KindInt:
		v.Ints = c.Ints[:n:n]
	case KindFloat:
		v.Floats = c.Floats[:n:n]
	default:
		k := len(c.Dict.Strs)
		v.Strs, v.Codes = c.Strs[:n:n], c.Codes[:n:n]
		v.Dict = &StrDict{Strs: c.Dict.Strs[:k:k], Hashes: c.Dict.Hashes[:k:k]}
	}
	return v
}

// Package batch implements typed columnar batches: the unit of data flow
// in the engine and the estimator. A Batch holds one flat typed slice
// per column (expr.Vec) plus one flat lineage-ID column per base relation
// in its lineage schema — exactly the §6.2 payload (per-tuple aggregate
// inputs and lineage) without a boxed relation.Tuple per row.
//
// Batches are immutable once published: operators derive new batches by
// gathering through selection vectors ([]int32 row indices), never by
// writing through an input's slices. Scanning a base relation is O(1):
// the batch aliases the relation's cached columnar Snapshot.
//
// The row-major ops.Rows representation belongs to the serial reference
// executor (plan.Execute); FromRows/ToRows convert losslessly at that
// boundary — tests comparing the engine against the reference, and the
// synopsis builder.
package batch

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/relation"
)

// Batch is a columnar intermediate result: a column schema, a lineage
// schema naming the base relations the rows derive from, one typed vector
// per column, and one lineage-ID column per lineage slot.
type Batch struct {
	Schema *relation.Schema
	LSch   *lineage.Schema
	Cols   []expr.Vec
	Lin    [][]lineage.TupleID
	// Zones is the scanned relation's zone map when the batch aliases a
	// base-relation snapshot partition-aligned with it (FromRelation), nil
	// on every derived batch. The fused kernel uses it to skip partitions
	// a predicate provably rejects.
	Zones *relation.Zones
	rows  int
	// owned marks a batch whose column and lineage buffers were drawn from
	// the package pools (Alloc/AllocLike/AllocMerged/Gather) and may be
	// returned to them via Release. Views — FromRelation snapshots, Narrow,
	// slices — are never owned.
	owned bool
}

// New assembles a batch from parts, validating slice lengths.
func New(schema *relation.Schema, lsch *lineage.Schema, cols []expr.Vec, lin [][]lineage.TupleID, rows int) (*Batch, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("batch: %d column vectors for %d schema columns", len(cols), schema.Len())
	}
	if len(lin) != lsch.Len() {
		return nil, fmt.Errorf("batch: %d lineage columns for %d lineage slots", len(lin), lsch.Len())
	}
	for j, c := range cols {
		if c.Const || c.Len() != rows {
			return nil, fmt.Errorf("batch: column %d has %d rows, want %d dense", j, c.Len(), rows)
		}
	}
	for s, l := range lin {
		if len(l) != rows {
			return nil, fmt.Errorf("batch: lineage slot %d has %d rows, want %d", s, len(l), rows)
		}
	}
	return &Batch{Schema: schema, LSch: lsch, Cols: cols, Lin: lin, rows: rows}, nil
}

// Alloc returns a batch with dense columns of the given row count, for
// operators that fill output partitions in place. Numeric and lineage
// buffers come from the package pools (see pool.go): callers must write
// every row position before publishing the batch, and may hand the batch
// to Release once it is dead.
func Alloc(schema *relation.Schema, lsch *lineage.Schema, rows int) *Batch {
	cols := make([]expr.Vec, schema.Len())
	for j := range cols {
		cols[j] = allocVecPooled(schema.Col(j).Kind, rows)
	}
	lin := make([][]lineage.TupleID, lsch.Len())
	for s := range lin {
		lin[s] = poolID.Get(rows)
	}
	return &Batch{Schema: schema, LSch: lsch, Cols: cols, Lin: lin, rows: rows, owned: true}
}

// AllocVec returns a dense zero vector of the given kind and length.
func AllocVec(kind relation.Kind, n int) expr.Vec {
	switch kind {
	case relation.KindInt:
		return expr.Vec{Kind: kind, I: make([]int64, n)}
	case relation.KindFloat:
		return expr.Vec{Kind: kind, F: make([]float64, n)}
	default:
		return expr.Vec{Kind: kind, S: make([]string, n)}
	}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.rows }

// ValueAt boxes the value at (row, col).
func (b *Batch) ValueAt(row, col int) relation.Value { return b.Cols[col].ValueAt(row) }

// Narrow returns a view of b restricted to the named columns (in the
// given order), sharing column storage, lineage and row count. Zones are
// carried over as-is and keep the ORIGINAL schema's column indexing —
// zone consumers must resolve names against the pre-narrowing schema, as
// the engine's zone pruner does.
func (b *Batch) Narrow(names []string) (*Batch, error) {
	cols := make([]expr.Vec, len(names))
	sub := make([]relation.Column, len(names))
	for k, nm := range names {
		j, ok := b.Schema.Index(nm)
		if !ok {
			return nil, fmt.Errorf("batch: narrow: unknown column %q", nm)
		}
		cols[k] = b.Cols[j]
		sub[k] = b.Schema.Col(j)
	}
	schema, err := relation.NewSchema(sub...)
	if err != nil {
		return nil, err
	}
	return &Batch{Schema: schema, LSch: b.LSch, Cols: cols, Lin: b.Lin, Zones: b.Zones, rows: b.rows}, nil
}

// FromRelation lifts a base relation into a columnar batch with one
// lineage slot (the relation's tuple IDs) under the given alias. The batch
// aliases the relation's cached Snapshot — no per-row work at all.
func FromRelation(r *relation.Relation, alias string) (*Batch, error) {
	if alias == "" {
		alias = r.Name()
	}
	ls, err := lineage.NewSchema(alias)
	if err != nil {
		return nil, err
	}
	snap := r.Snapshot()
	cols := make([]expr.Vec, len(snap.Cols))
	for j, c := range snap.Cols {
		cols[j] = expr.Vec{Kind: c.Kind, I: c.Ints, F: c.Floats, S: c.Strs, Codes: c.Codes, Dict: c.Dict}
	}
	return &Batch{
		Schema: r.Schema(),
		LSch:   ls,
		Cols:   cols,
		Lin:    [][]lineage.TupleID{snap.IDs},
		Zones:  snap.Zones,
		rows:   snap.Rows,
	}, nil
}

// FromRows converts a row-major result into a columnar batch. Values must
// match the declared column kinds (ints widen into float columns, as the
// row operators guarantee).
func FromRows(r *ops.Rows) (*Batch, error) {
	n := r.Len()
	b := Alloc(r.Cols, r.LSch, n)
	for j := 0; j < r.Cols.Len(); j++ {
		col := b.Cols[j]
		switch r.Cols.Col(j).Kind {
		case relation.KindInt:
			for i, row := range r.Data {
				v, err := row.Vals[j].AsInt()
				if err != nil {
					return nil, fmt.Errorf("batch: column %s row %d: %w", r.Cols.Col(j).Name, i, err)
				}
				col.I[i] = v
			}
		case relation.KindFloat:
			for i, row := range r.Data {
				v, err := row.Vals[j].AsFloat()
				if err != nil {
					return nil, fmt.Errorf("batch: column %s row %d: %w", r.Cols.Col(j).Name, i, err)
				}
				col.F[i] = v
			}
		default:
			for i, row := range r.Data {
				col.S[i] = row.Vals[j].AsString()
			}
		}
	}
	for s := 0; s < r.LSch.Len(); s++ {
		dst := b.Lin[s]
		for i, row := range r.Data {
			dst[i] = row.Lin[s]
		}
	}
	return b, nil
}

// ToRows materializes the batch row-major, for boundaries that speak
// ops.Rows (tests comparing against the reference executor, the synopsis
// builder).
func (b *Batch) ToRows() *ops.Rows {
	data := make([]ops.Row, b.rows)
	nslots := len(b.Lin)
	// One backing array per batch for lineage vectors keeps the conversion
	// to O(rows) allocations instead of O(rows·slots).
	linBacking := make([]lineage.TupleID, b.rows*nslots)
	for i := 0; i < b.rows; i++ {
		vals := make(relation.Tuple, len(b.Cols))
		for j := range b.Cols {
			vals[j] = b.Cols[j].ValueAt(i)
		}
		lin := linBacking[i*nslots : (i+1)*nslots : (i+1)*nslots]
		for s := 0; s < nslots; s++ {
			lin[s] = b.Lin[s][i]
		}
		data[i] = ops.Row{Lin: lineage.Vector(lin), Vals: vals}
	}
	return &ops.Rows{Cols: b.Schema, LSch: b.LSch, Data: data}
}

// Gather returns a new dense batch holding the rows sel selects, in sel
// order. Dictionary sidecars carry over (single-source gather).
func (b *Batch) Gather(sel []int32) *Batch {
	out := AllocLike(b, len(sel))
	b.GatherInto(out, 0, sel)
	return out
}

// GatherInto copies the rows sel selects into dst starting at row offset
// off. dst must share b's schemas. Distinct (off, sel) ranges may be filled
// concurrently by different workers.
func (b *Batch) GatherInto(dst *Batch, off int, sel []int32) {
	for j := range b.Cols {
		GatherVec(b.Cols[j], sel, dst.Cols[j], off)
	}
	for s := range b.Lin {
		GatherIDs(b.Lin[s], sel, dst.Lin[s], off)
	}
}

// GatherVec copies src[sel[k]] into dst[off+k] for every k. src and dst
// must share a kind; dst must be dense and large enough. Dictionary codes
// gather along only when both sides carry the SAME dictionary object.
// Caller contract: a dst with a sidecar must come from AllocVecLike (or
// AllocMerged) of THIS src — pairing it with a different source would
// leave dst's codes stale while its strings update, breaking the Vec
// invariant; the dict-identity check below cannot repair that (dst is
// passed by value), it only refuses to write wrong codes.
func GatherVec(src expr.Vec, sel []int32, dst expr.Vec, off int) {
	switch src.Kind {
	case relation.KindInt:
		out := dst.I[off:]
		for k, i := range sel {
			out[k] = src.I[i]
		}
	case relation.KindFloat:
		out := dst.F[off:]
		for k, i := range sel {
			out[k] = src.F[i]
		}
	default:
		out := dst.S[off:]
		for k, i := range sel {
			out[k] = src.S[i]
		}
		if dst.Codes != nil && src.Codes != nil && src.Dict == dst.Dict {
			oc := dst.Codes[off:]
			for k, i := range sel {
				oc[k] = src.Codes[i]
			}
		}
	}
}

// GatherIDs is GatherVec for lineage-ID columns.
func GatherIDs(src []lineage.TupleID, sel []int32, dst []lineage.TupleID, off int) {
	out := dst[off:]
	for k, i := range sel {
		out[k] = src[i]
	}
}

// LinVectorAt materializes row i's lineage vector (for boundaries that
// need row-major lineage, e.g. §7 sub-sampled moment estimation).
func (b *Batch) LinVectorAt(i int) lineage.Vector {
	v := lineage.NewVector(len(b.Lin))
	for s := range b.Lin {
		v[s] = b.Lin[s][i]
	}
	return v
}

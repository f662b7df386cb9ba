// Canonical row hashing and typed key equality over batch columns: the
// zero-allocation replacement for the string join keys (VecKeyAt) the
// keyed operators used to materialize per row. Hashes flow through the
// shared relation.IntHash/FloatHash/StringHash encodings — equal Key()
// strings always hash equal — and collisions are resolved by EqualAt's
// full typed compare, which reproduces Key() string equality exactly
// (including FloatKey's int-normalization and NaN collapse). Because the
// compare is per column, composite keys can never alias the way
// concatenated strings could ("a","bc" vs "ab","c").
package batch

import (
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
)

// HashVecSel writes the canonical join-key hash of v's row sel[k] into
// out[k] for every k. Dictionary-encoded string columns hash by code
// lookup; plain string columns hash the bytes (still allocation-free).
func HashVecSel(v expr.Vec, sel []int32, out []uint64) {
	out = out[:len(sel)]
	switch v.Kind {
	case relation.KindInt:
		for k, i := range sel {
			out[k] = relation.IntHash(v.I[i])
		}
	case relation.KindFloat:
		for k, i := range sel {
			out[k] = relation.FloatHash(v.F[i])
		}
	default:
		if v.Codes != nil {
			hs := v.Dict.Hashes
			for k, i := range sel {
				out[k] = hs[v.Codes[i]]
			}
			return
		}
		for k, i := range sel {
			out[k] = relation.StringHash(v.S[i])
		}
	}
}

// HashAt returns row i's canonical join-key hash.
func HashAt(v expr.Vec, i int) uint64 {
	switch v.Kind {
	case relation.KindInt:
		return relation.IntHash(v.I[i])
	case relation.KindFloat:
		return relation.FloatHash(v.F[i])
	default:
		if v.Codes != nil {
			return v.Dict.Hashes[v.Codes[i]]
		}
		return relation.StringHash(v.S[i])
	}
}

// EqualAt reports join-key equality of a's row i and b's row j — exactly
// Key() string equality. Two string columns sharing one dictionary compare
// by code; otherwise by string bytes. String and numeric keys are never
// equal; int and float keys match under FloatKey's int-normalization.
func EqualAt(a expr.Vec, i int, b expr.Vec, j int) bool {
	as, bs := a.Kind == relation.KindString, b.Kind == relation.KindString
	if as || bs {
		if !as || !bs {
			return false
		}
		if a.Codes != nil && b.Codes != nil && a.Dict == b.Dict {
			return a.Codes[i] == b.Codes[j]
		}
		return a.S[i] == b.S[j]
	}
	ai, bi := a.Kind == relation.KindInt, b.Kind == relation.KindInt
	switch {
	case ai && bi:
		return a.I[i] == b.I[j]
	case ai:
		return relation.IntFloatKeyEqual(a.I[i], b.F[j])
	case bi:
		return relation.IntFloatKeyEqual(b.I[j], a.F[i])
	default:
		return relation.FloatKeyEqual(a.F[i], b.F[j])
	}
}

// AllocVecLike returns a dense vector of src's kind, carrying a
// dictionary sidecar when src has one — so gathers from src (GatherVec
// checks the dictionaries match) keep rows hashable by code. Numeric
// storage comes from the package pools and is NOT zeroed: callers must
// write every row position before publishing the result.
func AllocVecLike(src expr.Vec, n int) expr.Vec {
	v := allocVecPooled(src.Kind, n)
	if src.Kind == relation.KindString && src.Dict != nil {
		v.Codes, v.Dict = make([]int32, n), src.Dict
	}
	return v
}

// AllocLike is Alloc with each column allocated AllocVecLike b's — the
// output container for single-source gathers (Gather, the fused kernel's
// unprojected path), which preserve dictionary encodings end to end.
func AllocLike(b *Batch, rows int) *Batch {
	cols := make([]expr.Vec, len(b.Cols))
	for j, c := range b.Cols {
		cols[j] = AllocVecLike(c, rows)
	}
	lin := make([][]lineage.TupleID, len(b.Lin))
	for s := range lin {
		lin[s] = poolID.Get(rows)
	}
	return &Batch{Schema: b.Schema, LSch: b.LSch, Cols: cols, Lin: lin, rows: rows, owned: true}
}

// AllocMerged allocates an output batch (a's schemas) to be filled from
// rows of BOTH a and b (set operators). A column keeps its dictionary
// sidecar only when the two sources share the dictionary object — a code
// gathered from either side then means the same string — and degrades to a
// plain column otherwise.
func AllocMerged(a, b *Batch, rows int) *Batch {
	cols := make([]expr.Vec, len(a.Cols))
	for j, c := range a.Cols {
		if c.Dict != nil && c.Dict == b.Cols[j].Dict {
			cols[j] = AllocVecLike(c, rows)
		} else {
			cols[j] = allocVecPooled(c.Kind, rows)
		}
	}
	lin := make([][]lineage.TupleID, len(a.Lin))
	for s := range lin {
		lin[s] = poolID.Get(rows)
	}
	return &Batch{Schema: a.Schema, LSch: a.LSch, Cols: cols, Lin: lin, rows: rows, owned: true}
}

// AllocJoined allocates an owned join-output batch with the given
// (concatenated) schemas whose columns mirror l's then r's — including
// their dictionary sidecars, so encoded join keys stay encoded through
// the join.
func AllocJoined(l, r *Batch, cols *relation.Schema, lsch *lineage.Schema, rows int) *Batch {
	vecs := make([]expr.Vec, 0, len(l.Cols)+len(r.Cols))
	for _, c := range l.Cols {
		vecs = append(vecs, AllocVecLike(c, rows))
	}
	for _, c := range r.Cols {
		vecs = append(vecs, AllocVecLike(c, rows))
	}
	lin := make([][]lineage.TupleID, lsch.Len())
	for s := range lin {
		lin[s] = poolID.Get(rows)
	}
	return &Batch{Schema: cols, LSch: lsch, Cols: vecs, Lin: lin, rows: rows, owned: true}
}

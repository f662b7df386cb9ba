package engine

import (
	"testing"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
)

// TestJoinTableCompositeAliasKeys is the regression for the latent
// concatenation-aliasing bug: composite keys like ("a","bc") and ("ab","c")
// — identical when naively concatenated — must stay distinct under the
// open-addressing scheme, whose hash combines per-column hashes and whose
// collision fallback compares each column in full.
func TestJoinTableCompositeAliasKeys(t *testing.T) {
	// Rows with deliberately aliasing composite keys, plus an exact twin of
	// row 0 that MUST merge with it.
	c1 := expr.Vec{Kind: relation.KindString, S: []string{"a", "ab", "", "x", "a"}}
	c2 := expr.Vec{Kind: relation.KindString, S: []string{"bc", "c", "xbc", "bc", "bc"}}
	n := len(c1.S)
	hashes := make([]uint64, n)
	for i := 0; i < n; i++ {
		hashes[i] = hashtab.Combine(batch.HashAt(c1, i), batch.HashAt(c2, i))
	}
	eq := func(i, j int32) bool {
		return batch.EqualAt(c1, int(i), c1, int(j)) && batch.EqualAt(c2, int(i), c2, int(j))
	}
	for _, workers := range []int{1, 4} {
		e := New(Config{Workers: workers, PartitionSize: 2, SerialCutoff: 1})
		table, err := e.buildJoinTable(n, hashes, eq)
		if err != nil {
			t.Fatal(err)
		}
		// Each key must match exactly its own rows: row 0 and row 4 share a
		// key; every other row stands alone.
		want := [][]int32{{0, 4}, {1}, {2}, {3}, {0, 4}}
		for i := 0; i < n; i++ {
			pi := i
			var got []int32
			for bi := table.head(hashes[i], func(row int32) bool {
				return batch.EqualAt(c1, pi, c1, int(row)) && batch.EqualAt(c2, pi, c2, int(row))
			}); bi >= 0; bi = table.chainNext(bi) {
				got = append(got, bi)
			}
			if len(got) != len(want[i]) {
				t.Fatalf("workers=%d row %d: matches %v, want %v (composite keys alias)", workers, i, got, want[i])
			}
			for k := range got {
				if got[k] != want[i][k] {
					t.Fatalf("workers=%d row %d: matches %v, want %v", workers, i, got, want[i])
				}
			}
		}
		table.release()
	}
}

// stringKeyTables builds two relations joined on string keys chosen to
// stress hashing: empty strings, prefixes of each other, embedded NULs.
func stringKeyTables(t *testing.T) (*relation.Relation, *relation.Relation) {
	t.Helper()
	keys := []string{"a", "ab", "a\x00b", "", "b", "a", "\x00", "ab"}
	l := relation.MustNew("lt", relation.MustSchema(
		relation.Column{Name: "lk", Kind: relation.KindString},
		relation.Column{Name: "lv", Kind: relation.KindInt},
	))
	for i, k := range keys {
		l.MustAppend(relation.String_(k), relation.Int(int64(i)))
	}
	r := relation.MustNew("rt", relation.MustSchema(
		relation.Column{Name: "rk", Kind: relation.KindString},
		relation.Column{Name: "rv", Kind: relation.KindInt},
	))
	for i, k := range []string{"ab", "a", "", "a\x00b", "zz", "a"} {
		r.MustAppend(relation.String_(k), relation.Int(int64(100+i)))
	}
	return l, r
}

// TestJoinStringKeysMatchOracle: hash-keyed joins over adversarial string
// keys must reproduce the serial ops.HashJoin exactly at several worker
// counts.
func TestJoinStringKeysMatchOracle(t *testing.T) {
	lRel, rRel := stringKeyTables(t)
	p := &plan.Join{
		Left:     &plan.Scan{Rel: lRel},
		Right:    &plan.Scan{Rel: rRel},
		LeftCol:  "lk",
		RightCol: "rk",
	}
	lRows, err := ops.FromRelation(lRel, "")
	if err != nil {
		t.Fatal(err)
	}
	rRows, err := ops.FromRelation(rRel, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ops.HashJoin(lRows, rRows, "lk", "rk")
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("oracle join empty; test data broken")
	}
	for _, w := range []int{1, 2, 4} {
		e := New(Config{Workers: w, PartitionSize: 2, SerialCutoff: 1})
		b, err := e.ExecuteBatch(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "columnar", want, b.ToRows())
	}
}

// TestSetOpsLineageBoundaries: multi-slot lineage keys whose byte images
// would alias under unframed concatenation (e.g. IDs [0x0102, 0x03] vs
// [0x01, 0x0203]) must stay distinct in union/intersect grouping.
func TestSetOpsLineageBoundaries(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})
	lsch := lineage.MustSchema("a", "b")
	mk := func(ids [][2]lineage.TupleID) *batch.Batch {
		cols := []expr.Vec{{Kind: relation.KindInt, I: make([]int64, len(ids))}}
		lin := [][]lineage.TupleID{make([]lineage.TupleID, len(ids)), make([]lineage.TupleID, len(ids))}
		for i, id := range ids {
			cols[0].I[i] = int64(i)
			lin[0][i], lin[1][i] = id[0], id[1]
		}
		b, err := batch.New(schema, lsch, cols, lin, len(ids))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	l := mk([][2]lineage.TupleID{{0x0102, 0x03}, {7, 7}})
	r := mk([][2]lineage.TupleID{{0x01, 0x0203}, {7, 7}})
	u, err := execUnionB(l, r)
	if err != nil {
		t.Fatal(err)
	}
	// {0x0102,0x03} and {0x01,0x0203} are distinct lineages: union keeps
	// both; only {7,7} deduplicates.
	if u.Len() != 3 {
		t.Fatalf("union has %d rows, want 3 (lineage keys aliased)", u.Len())
	}
	in, err := execIntersectB(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 1 || in.Lin[0][0] != 7 || in.Lin[1][0] != 7 {
		t.Fatalf("intersect kept %d rows, want exactly the shared {7,7}", in.Len())
	}
}

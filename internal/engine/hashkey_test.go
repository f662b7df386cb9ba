package engine

import (
	"fmt"
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
			got := table.matches(hashes[i], func(row int32) bool {
				return batch.EqualAt(c1, pi, c1, int(row)) && batch.EqualAt(c2, pi, c2, int(row))
			})
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

// matches probes the table as the join does and returns the chain of build
// rows matching (h, eq).
func (t *joinTable) matches(h uint64, eq func(row int32) bool) []int32 {
	home := make([]uint64, 1)
	t.homes([]uint64{h}, home)
	var rows []int32
	for b := t.head(h, home[0], eq); b >= 0; b = t.chainNext(b) {
		rows = append(rows, b)
	}
	return rows
}

// TestJoinTablePackedSlotCollisions feeds buildJoinTable hand-made hashes
// so that distinct keys meet in the packed slots: keys sharing the whole
// hash, and keys sharing the 32-bit tag while differing in the bits the
// slot index or the radix read. Only EqualAt can separate them, and every
// key's chain must hold exactly its rows in ascending order, at radix bits
// 0 and 8.
func TestJoinTablePackedSlotCollisions(t *testing.T) {
	const h0 = 0x9e3779b97f4a7c15
	hashOf := map[int64]uint64{
		10: h0,
		20: h0,             // equal full hash
		30: h0 ^ 1,         // equal tag, next home slot
		40: h0 ^ 1<<60,     // equal tag and slot index, another radix at 8 bits
		50: h0 ^ 1<<23,     // equal tag, slot index differs only in a large region
		60: h0 ^ 1<<40,     // different tag, same home: rejected without EqualAt
		70: h0 ^ 1 ^ 1<<60, // equal tag, next slot, another radix
	}
	for k, h := range hashOf {
		if k != 60 && slotTag(h) != slotTag(h0) {
			t.Fatalf("key %d: tag %#x, want the shared tag %#x", k, slotTag(h), slotTag(h0))
		}
	}
	if slotTag(hashOf[60]) == slotTag(h0) {
		t.Fatal("key 60 must differ in its tag")
	}
	keys := []int64{10, 20, 30, 10, 40, 20, 50, 60, 10, 70, 30, 20, 40, 60, 50, 10, 70, 20}
	vec := expr.Vec{Kind: relation.KindInt, I: keys}
	hashes := make([]uint64, len(keys))
	want := map[int64][]int32{}
	for i, k := range keys {
		hashes[i] = hashOf[k]
		want[k] = append(want[k], int32(i))
	}
	eq := func(i, j int32) bool { return batch.EqualAt(vec, int(i), vec, int(j)) }
	for _, tc := range []struct {
		workers   int
		radixBits uint
	}{{1, 0}, {64, 8}} {
		e := New(Config{Workers: tc.workers, PartitionSize: 4, SerialCutoff: 1})
		table, err := e.buildJoinTable(len(keys), hashes, eq)
		if err != nil {
			t.Fatal(err)
		}
		if table.radixBits != tc.radixBits {
			t.Fatalf("workers=%d: radix bits %d, want %d", tc.workers, table.radixBits, tc.radixBits)
		}
		for i, k := range keys {
			got := table.matches(hashes[i], func(row int32) bool { return batch.EqualAt(vec, i, vec, int(row)) })
			if fmt.Sprint(got) != fmt.Sprint(want[k]) {
				t.Fatalf("radix bits %d: key %d (row %d) matches rows %v, want %v", tc.radixBits, k, i, got, want[k])
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

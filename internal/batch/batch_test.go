package batch

import (
	"testing"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/relation"
)

func testRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rel := relation.MustNew("t", relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
	))
	words := []string{"a", "b", "c"}
	for i := 0; i < 100; i++ {
		rel.MustAppend(relation.Int(int64(i%7)), relation.Float(float64(i)*1.5), relation.String_(words[i%3]))
	}
	return rel
}

func TestFromRelationAliasesSnapshot(t *testing.T) {
	rel := testRelation(t)
	b, err := FromRelation(rel, "")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != rel.Len() {
		t.Fatalf("len %d vs %d", b.Len(), rel.Len())
	}
	snap := rel.Snapshot()
	if &b.Cols[0].I[0] != &snap.Cols[0].Ints[0] {
		t.Error("int column not aliased to snapshot (scan should be zero-copy)")
	}
	if &b.Lin[0][0] != &snap.IDs[0] {
		t.Error("lineage column not aliased to snapshot")
	}
	// Appending invalidates the snapshot: a fresh scan must see the row.
	rel.MustAppend(relation.Int(99), relation.Float(9.9), relation.String_("z"))
	b2, err := FromRelation(rel, "")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Len() != rel.Len() {
		t.Fatalf("post-append len %d vs %d", b2.Len(), rel.Len())
	}
	if v, _ := b2.ValueAt(b2.Len()-1, 0).AsInt(); v != 99 {
		t.Fatalf("post-append scan missed new row: %d", v)
	}
}

func TestRowsRoundTrip(t *testing.T) {
	rel := testRelation(t)
	rows, err := ops.FromRelation(rel, "alias")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	back := b.ToRows()
	if back.Len() != rows.Len() || !back.Cols.Equal(rows.Cols) || !back.LSch.Equal(rows.LSch) {
		t.Fatal("round trip changed shape")
	}
	for i := range rows.Data {
		if !back.Data[i].Lin.Equal(rows.Data[i].Lin) {
			t.Fatalf("row %d lineage changed", i)
		}
		for j := range rows.Data[i].Vals {
			if back.Data[i].Vals[j] != rows.Data[i].Vals[j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, back.Data[i].Vals[j], rows.Data[i].Vals[j])
			}
		}
	}
}

func TestGather(t *testing.T) {
	rel := testRelation(t)
	b, err := FromRelation(rel, "")
	if err != nil {
		t.Fatal(err)
	}
	sel := []int32{3, 1, 4, 1, 59}
	g := b.Gather(sel)
	if g.Len() != len(sel) {
		t.Fatalf("gathered %d rows", g.Len())
	}
	for k, i := range sel {
		for j := 0; j < b.Schema.Len(); j++ {
			if g.ValueAt(k, j) != b.ValueAt(int(i), j) {
				t.Fatalf("gather row %d col %d mismatch", k, j)
			}
		}
		if g.Lin[0][k] != b.Lin[0][i] {
			t.Fatalf("gather row %d lineage mismatch", k)
		}
	}
}

// TestHashMirrorsRowPathKeys: canonical hashing and typed equality must
// agree with the Value.Key encoding the reference ops.HashJoin keys on —
// equal keys hash equal and EqualAt holds exactly when the Key strings
// match — or engine joins would group differently from the reference.
func TestHashMirrorsRowPathKeys(t *testing.T) {
	vals := []relation.Value{
		relation.Int(42), relation.Int(-7), relation.Int(1 << 52),
		relation.Float(42), // integral float shares the int key space
		relation.Float(3.25), relation.Float(-0.5), relation.Float(1e16),
		relation.String_("x"), relation.String_(""), relation.String_("42"),
	}
	for _, a := range vals {
		for _, b := range vals {
			av, bv := expr.ConstVec(a), expr.ConstVec(b)
			keyEq := a.Key() == b.Key()
			if got := EqualAt(av, 0, bv, 0); got != keyEq {
				t.Errorf("EqualAt(%v, %v) = %v, Key equality %v", a, b, got, keyEq)
			}
			if keyEq && HashAt(av, 0) != HashAt(bv, 0) {
				t.Errorf("equal keys %v, %v hash apart", a, b)
			}
		}
	}
}

// TestGatherKeepsDictionaries: single-source gathers must preserve the
// snapshot's dictionary sidecar with codes matching the strings.
func TestGatherKeepsDictionaries(t *testing.T) {
	rel := testRelation(t)
	b, err := FromRelation(rel, "")
	if err != nil {
		t.Fatal(err)
	}
	sIdx, _ := b.Schema.Index("s")
	if b.Cols[sIdx].Dict == nil || b.Cols[sIdx].Codes == nil {
		t.Fatal("scan batch lost the snapshot dictionary")
	}
	g := b.Gather([]int32{5, 2, 77, 2})
	gc := g.Cols[sIdx]
	if gc.Dict != b.Cols[sIdx].Dict {
		t.Fatal("gather changed the dictionary object")
	}
	for i := 0; i < g.Len(); i++ {
		if gc.Dict.Strs[gc.Codes[i]] != gc.S[i] {
			t.Fatalf("row %d: code %d decodes to %q, column holds %q",
				i, gc.Codes[i], gc.Dict.Strs[gc.Codes[i]], gc.S[i])
		}
		if gc.Dict.Hashes[gc.Codes[i]] != relation.StringHash(gc.S[i]) {
			t.Fatalf("row %d: dictionary hash does not match StringHash", i)
		}
	}
}

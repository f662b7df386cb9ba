package relation

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"github.com/sampling-algebra/gus/internal/lineage"
)

func TestValueKindsAndConversions(t *testing.T) {
	iv, fv, sv := Int(7), Float(2.5), String_("x")
	if iv.Kind() != KindInt || fv.Kind() != KindFloat || sv.Kind() != KindString {
		t.Fatal("kinds wrong")
	}
	if !iv.IsNumeric() || !fv.IsNumeric() || sv.IsNumeric() {
		t.Error("IsNumeric wrong")
	}
	if got, err := iv.AsFloat(); err != nil || got != 7 {
		t.Errorf("int AsFloat = %v, %v", got, err)
	}
	if got, err := fv.AsInt(); err != nil || got != 2 {
		t.Errorf("float AsInt = %v, %v", got, err)
	}
	if _, err := sv.AsInt(); err == nil {
		t.Error("string AsInt accepted")
	}
	if _, err := sv.AsFloat(); err == nil {
		t.Error("string AsFloat accepted")
	}
	if sv.AsString() != "x" || iv.AsString() != "7" || fv.AsString() != "2.5" {
		t.Error("AsString wrong")
	}
}

func TestBoolAndTruthy(t *testing.T) {
	if !Bool(true).Truthy() || Bool(false).Truthy() {
		t.Error("Bool/Truthy wrong")
	}
	if Int(0).Truthy() || !Int(-1).Truthy() || !Float(0.5).Truthy() || Float(0).Truthy() {
		t.Error("numeric Truthy wrong")
	}
	if String_("yes").Truthy() {
		t.Error("strings must not be truthy")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("b"), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v,%v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Int(1).Compare(String_("1")); err == nil {
		t.Error("cross-type compare accepted")
	}
	if Int(1).Equal(String_("1")) {
		t.Error("cross-type Equal should be false")
	}
	if !Int(2).Equal(Float(2)) {
		t.Error("numeric Equal across kinds should hold")
	}
}

func TestCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if c, err := nan.Compare(Float(1)); err != nil || c != -1 {
		t.Errorf("NaN orders first: got %d, %v", c, err)
	}
	if c, err := Float(1).Compare(nan); err != nil || c != 1 {
		t.Errorf("NaN orders first: got %d, %v", c, err)
	}
}

func TestValueKey(t *testing.T) {
	if Int(5).Key() != Float(5).Key() {
		t.Error("integral float and int must share join keys")
	}
	if Int(5).Key() == Int(6).Key() {
		t.Error("distinct ints collide")
	}
	if Float(5.5).Key() == Float(5.25).Key() {
		t.Error("distinct floats collide")
	}
	if String_("5").Key() == Int(5).Key() {
		t.Error("string and int keys must differ")
	}
}

func TestSchema(t *testing.T) {
	s := MustSchema(Column{"a", KindInt}, Column{"b", KindFloat})
	if s.Len() != 2 || s.Col(1).Name != "b" {
		t.Error("schema accessors wrong")
	}
	if i, ok := s.Index("b"); !ok || i != 1 {
		t.Error("Index wrong")
	}
	if _, ok := s.Index("z"); ok {
		t.Error("Index found missing column")
	}
	if _, err := NewSchema(Column{"a", KindInt}, Column{"a", KindInt}); err == nil {
		t.Error("duplicate columns accepted")
	}
	if _, err := NewSchema(Column{"", KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	t2 := MustSchema(Column{"c", KindString})
	cat, err := s.Concat(t2)
	if err != nil || cat.Len() != 3 {
		t.Errorf("Concat = %v, %v", cat, err)
	}
	if _, err := s.Concat(MustSchema(Column{"a", KindInt})); err == nil {
		t.Error("conflicting Concat accepted")
	}
	if !s.Equal(MustSchema(Column{"a", KindInt}, Column{"b", KindFloat})) {
		t.Error("Equal wrong")
	}
	if s.Equal(t2) {
		t.Error("Equal over different schemas")
	}
}

func testRelation(t *testing.T) *Relation {
	t.Helper()
	r := MustNew("orders", MustSchema(
		Column{"o_orderkey", KindInt},
		Column{"o_totalprice", KindFloat},
		Column{"o_status", KindString},
	))
	r.MustAppend(Int(1), Float(100.5), String_("O"))
	r.MustAppend(Int(2), Float(200.0), String_("F"))
	r.MustAppend(Int(3), Float(50.25), String_("O"))
	return r
}

func TestRelationBasics(t *testing.T) {
	r := testRelation(t)
	if r.Name() != "orders" || r.Len() != 3 {
		t.Fatal("relation basics wrong")
	}
	if r.ID(0) != 1 || r.ID(2) != 3 {
		t.Error("auto IDs wrong")
	}
	if got := r.Row(1)[1]; !got.Equal(Float(200)) {
		t.Error("Row wrong")
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	sum, err := r.SumFloat("o_totalprice")
	if err != nil || math.Abs(sum-350.75) > 1e-12 {
		t.Errorf("SumFloat = %v, %v", sum, err)
	}
	if _, err := r.SumFloat("nope"); err == nil {
		t.Error("SumFloat on missing column accepted")
	}
	if _, err := r.SumFloat("o_status"); err == nil {
		t.Error("SumFloat on string column accepted")
	}
}

func TestAppendValidation(t *testing.T) {
	r := testRelation(t)
	if err := r.Append(Tuple{Int(4)}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := r.Append(Tuple{Float(4), Float(1), String_("O")}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := New("", nil); err == nil {
		t.Error("empty relation name accepted")
	}
}

func TestAppendWithIDAndValidate(t *testing.T) {
	r := MustNew("r", MustSchema(Column{"k", KindInt}))
	if err := r.AppendWithID(10, Tuple{Int(1)}); err != nil {
		t.Fatal(err)
	}
	// Auto-IDs must not collide with explicit ones.
	r.MustAppend(Int(2))
	if r.ID(1) != 11 {
		t.Errorf("auto ID after explicit = %d, want 11", r.ID(1))
	}
	if err := r.AppendWithID(10, Tuple{Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err == nil {
		t.Error("duplicate IDs passed Validate")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := testRelation(t)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("orders", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() || !got.Schema().Equal(r.Schema()) {
		t.Fatal("round trip lost shape")
	}
	for i := 0; i < r.Len(); i++ {
		if got.ID(i) != r.ID(i) {
			t.Errorf("row %d id %d ≠ %d", i, got.ID(i), r.ID(i))
		}
		for j := range r.Row(i) {
			if !got.Row(i)[j].Equal(r.Row(i)[j]) {
				t.Errorf("row %d col %d: %v ≠ %v", i, j, got.Row(i)[j], r.Row(i)[j])
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	r := testRelation(t)
	path := filepath.Join(t.TempDir(), "orders.csv")
	if err := r.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSVFile("orders", path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("loaded %d rows", got.Len())
	}
	if _, err := LoadCSVFile("x", filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"id,a:int\n1,2\n",          // wrong first header
		"#id,a\n1,2\n",             // header missing type
		"#id,a:blob\n1,2\n",        // unknown type
		"#id,a:int\nx,2\n",         // bad id
		"#id,a:int\n1,notanint\n",  // bad int
		"#id,a:float\n1,notnum\n",  // bad float
		"#id,a:int\n1,2\n1,3\n",    // duplicate id
		"#id,a:int,a:int\n1,2,3\n", // duplicate column
	}
	for i, s := range bad {
		if _, err := ReadCSV("r", bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestTupleClone(t *testing.T) {
	tp := Tuple{Int(1), Int(2)}
	c := tp.Clone()
	c[0] = Int(99)
	if !tp[0].Equal(Int(1)) {
		t.Error("Clone aliases")
	}
}

func TestLineageIDType(t *testing.T) {
	// Compile-time contract: relation IDs are lineage.TupleIDs.
	var _ lineage.TupleID = testRelation(t).ID(0)
}

// TestSnapshotSurvivesAppends pins snapshot isolation for in-place typed
// appends: a snapshot taken before appends that cross zone boundaries and
// add new dictionary strings keeps its rows, IDs, values, codes,
// dictionary and zones; the new snapshot extends it, and its zones are
// BuildZones over its columns.
func TestSnapshotSurvivesAppends(t *testing.T) {
	r := MustNew("t", MustSchema(Column{"k", KindInt}, Column{"v", KindFloat}, Column{"s", KindString}))
	add := func(lo, hi int, tag string) {
		for i := lo; i < hi; i++ {
			v := float64(i) * 0.5
			if i%101 == 7 {
				v = math.NaN()
			}
			r.MustAppend(Int(int64(i%777)), Float(v), String_(fmt.Sprintf("%s%d", tag, i%5)))
		}
	}
	// Three sealed partitions leave the writer's zone slice spare capacity.
	const before, after = 3*DefaultZoneRows + 10, 5*DefaultZoneRows + 50
	add(0, before, "a")
	old := r.Snapshot()
	want := cloneSnapshot(old)
	// A reader's append must not reach the writer's memory either.
	for _, c := range old.Cols {
		if cap(c.Ints) != len(c.Ints) || cap(c.Floats) != len(c.Floats) || cap(c.Strs) != len(c.Strs) ||
			cap(c.Codes) != len(c.Codes) || c.Dict != nil && cap(c.Dict.Strs) != len(c.Dict.Strs) || cap(old.IDs) != old.Rows {
			t.Fatal("snapshot slice has spare capacity into the relation's columns")
		}
	}
	add(before, after, "b")
	requireSameSnapshot(t, "old snapshot after appends", old, want)

	now := r.Snapshot()
	if now.Rows != after || r.Len() != after {
		t.Fatalf("new snapshot has %d rows (Len %d), want %d", now.Rows, r.Len(), after)
	}
	prefix := cloneSnapshot(now)
	prefix.Rows, prefix.IDs = before, prefix.IDs[:before]
	for j := range prefix.Cols {
		c := &prefix.Cols[j]
		switch c.Kind {
		case KindInt:
			c.Ints = c.Ints[:before]
		case KindFloat:
			c.Floats = c.Floats[:before]
		default:
			c.Strs, c.Codes = c.Strs[:before], c.Codes[:before]
			c.Dict.Strs, c.Dict.Hashes = c.Dict.Strs[:5], c.Dict.Hashes[:5]
		}
	}
	prefix.Zones = BuildZones(prefix.Cols, before, DefaultZoneRows)
	requireSameSnapshot(t, "new snapshot's prefix", prefix, want)
	s := now.Cols[2]
	wantDict := []string{"a0", "a1", "a2", "a3", "a4"}
	for i := before; i < before+5; i++ {
		wantDict = append(wantDict, fmt.Sprintf("b%d", i%5))
	}
	if !slicesEqual(s.Dict.Strs, wantDict) {
		t.Fatalf("dictionary %v, want %v (first-appearance order)", s.Dict.Strs, wantDict)
	}
	for i, code := range s.Codes {
		if s.Strs[i] != s.Dict.Strs[code] || r.Row(i)[2].AsString() != s.Strs[i] {
			t.Fatalf("row %d: code %d, string %q, boxed %q", i, code, s.Strs[i], r.Row(i)[2].AsString())
		}
	}
	for c, v := range s.Dict.Strs {
		if s.Dict.Hashes[c] != StringHash(v) {
			t.Fatalf("dictionary entry %d (%q): hash %x, want %x", c, v, s.Dict.Hashes[c], StringHash(v))
		}
	}
	rebuilt := BuildZones(now.Cols, now.Rows, DefaultZoneRows)
	if now.Zones.ZoneRows != rebuilt.ZoneRows || now.Zones.NCols != rebuilt.NCols || !slicesEqual(now.Zones.Z, rebuilt.Z) {
		t.Fatalf("new snapshot's zones differ from BuildZones over its columns")
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cloneSnapshot deep-copies everything a snapshot exposes.
func cloneSnapshot(s *Snapshot) *Snapshot {
	c := &Snapshot{Rows: s.Rows, IDs: append([]lineage.TupleID(nil), s.IDs...), Cols: make([]ColumnSlice, len(s.Cols))}
	for j, col := range s.Cols {
		c.Cols[j] = ColumnSlice{Kind: col.Kind, Ints: append([]int64(nil), col.Ints...),
			Floats: append([]float64(nil), col.Floats...), Strs: append([]string(nil), col.Strs...),
			Codes: append([]int32(nil), col.Codes...)}
		if col.Dict != nil {
			c.Cols[j].Dict = &StrDict{Strs: append([]string(nil), col.Dict.Strs...), Hashes: append([]uint64(nil), col.Dict.Hashes...)}
		}
	}
	z := *s.Zones
	z.Z = append([]Zone(nil), z.Z...)
	c.Zones = &z
	return c
}

// requireSameSnapshot compares two snapshots field by field, floats by bits.
func requireSameSnapshot(t *testing.T, what string, got, want *Snapshot) {
	t.Helper()
	if got.Rows != want.Rows || !slicesEqual(got.IDs, want.IDs) || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: rows %d, %d IDs, %d columns; want %d, %d, %d", what, got.Rows, len(got.IDs), len(got.Cols), want.Rows, len(want.IDs), len(want.Cols))
	}
	for j, g := range got.Cols {
		w := want.Cols[j]
		same := g.Kind == w.Kind && slicesEqual(g.Ints, w.Ints) && slicesEqual(g.Strs, w.Strs) && slicesEqual(g.Codes, w.Codes) && len(g.Floats) == len(w.Floats)
		for i := range g.Floats {
			same = same && math.Float64bits(g.Floats[i]) == math.Float64bits(w.Floats[i])
		}
		if g.Dict != nil || w.Dict != nil {
			same = same && g.Dict != nil && w.Dict != nil && slicesEqual(g.Dict.Strs, w.Dict.Strs) && slicesEqual(g.Dict.Hashes, w.Dict.Hashes)
		}
		if !same {
			t.Fatalf("%s: column %d differs", what, j)
		}
	}
	if got.Zones.ZoneRows != want.Zones.ZoneRows || got.Zones.NCols != want.Zones.NCols || !slicesEqual(got.Zones.Z, want.Zones.Z) {
		t.Fatalf("%s: zones differ", what)
	}
}

// TestGrowKeepsRowsAndSnapshots: Grow reserves capacity without changing
// the table, appends up to that capacity do not move the columns, and a
// snapshot-born relation's image is left as it was.
func TestGrowKeepsRowsAndSnapshots(t *testing.T) {
	r := testRelation(t)
	old := r.Snapshot()
	want := cloneSnapshot(old)
	r.Grow(100)
	if r.Len() != 3 || r.Snapshot() != old {
		t.Fatalf("Grow changed the table: Len %d, snapshot kept %v", r.Len(), r.Snapshot() == old)
	}
	if cap(r.ids) < 103 || cap(r.cols[0].Ints) < 103 || cap(r.cols[1].Floats) < 103 ||
		cap(r.cols[2].Codes) < 103 || cap(r.cols[2].Strs) < 103 {
		t.Fatal("Grow did not reserve 100 more rows")
	}
	ints := &r.cols[0].Ints[0]
	for i := 0; i < 100; i++ {
		r.MustAppend(Int(int64(i)), Float(1), String_("O"))
	}
	if &r.cols[0].Ints[0] != ints {
		t.Fatal("appends within the reserved room moved the column")
	}
	requireSameSnapshot(t, "snapshot after Grow and appends", old, want)

	img := cloneSnapshot(old)
	born, err := FromSnapshot("b", r.Schema(), img, StorageSegment)
	if err != nil {
		t.Fatal(err)
	}
	born.Grow(10)
	born.MustAppend(Int(9), Float(9), String_("N"))
	if born.Len() != 4 || born.ID(3) != 4 {
		t.Fatalf("grown relation: Len %d, appended ID %d", born.Len(), born.ID(3))
	}
	requireSameSnapshot(t, "image under a grown relation", img, want)
}

// TestFromSnapshotDefersNextID: opening a snapshot reads no lineage ID;
// the first append finds the largest wherever it sits.
func TestFromSnapshotDefersNextID(t *testing.T) {
	src := MustNew("src", MustSchema(Column{"k", KindInt}))
	for _, id := range []lineage.TupleID{5, 70, 3} {
		if err := src.AppendWithID(id, Tuple{Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := FromSnapshot("r", src.Schema(), src.Snapshot(), "")
	if err != nil {
		t.Fatal(err)
	}
	if r.nextID != 0 {
		t.Fatalf("FromSnapshot computed next ID %d at open", r.nextID)
	}
	r.MustAppend(Int(2))
	if id := r.ID(3); id != 71 {
		t.Fatalf("first auto-ID %d, want 71", id)
	}
	empty, err := FromSnapshot("e", src.Schema(), MustNew("e", src.Schema()).Snapshot(), "")
	if err != nil {
		t.Fatal(err)
	}
	empty.MustAppend(Int(3))
	if id := empty.ID(0); id != 1 {
		t.Fatalf("first auto-ID of an empty image %d, want 1", id)
	}
}

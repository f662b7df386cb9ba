package segment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/sampling-algebra/gus/internal/relation"
)

func sampleRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
		relation.Column{Name: "tag", Kind: relation.KindString},
	)
	r := relation.MustNew("sample", schema)
	tags := []string{"alpha", "beta", "gamma", ""}
	for i := 0; i < rows; i++ {
		v := float64(i) * 1.5
		if i%97 == 13 {
			v = math.NaN()
		}
		r.MustAppend(relation.Int(int64(i%1000)), relation.Float(v), relation.String_(tags[i%len(tags)]))
	}
	return r
}

func assertEqualRelations(t *testing.T, want, got *relation.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("rows: want %d, got %d", want.Len(), got.Len())
	}
	if !want.Schema().Equal(got.Schema()) {
		t.Fatalf("schemas differ: %v vs %v", want.Schema().Columns(), got.Schema().Columns())
	}
	for i, n := 0, want.Len(); i < n; i++ {
		if want.ID(i) != got.ID(i) {
			t.Fatalf("row %d: lineage ID %d != %d", i, want.ID(i), got.ID(i))
		}
		wr, gr := want.Row(i), got.Row(i)
		for j := range wr {
			// Compare by representation so NaN == NaN.
			if wr[j].AsString() != gr[j].AsString() {
				t.Fatalf("row %d col %d: %q != %q", i, j, wr[j].AsString(), gr[j].AsString())
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 100, relation.DefaultZoneRows, relation.DefaultZoneRows + 1, 3*relation.DefaultZoneRows + 7} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			r := sampleRelation(t, rows)
			path := filepath.Join(t.TempDir(), "sample"+Ext)
			n, err := Write(path, r)
			if err != nil {
				t.Fatalf("Write: %v", err)
			}
			st, err := os.Stat(path)
			if err != nil || st.Size() != n {
				t.Fatalf("Write reported %d bytes, file has %d (err=%v)", n, st.Size(), err)
			}
			tab, err := Open("sample", path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer tab.Close()
			assertEqualRelations(t, r, tab.Rel)
			if got := tab.Rel.StorageMode(); got != relation.StorageSegment {
				t.Fatalf("StorageMode = %q, want %q", got, relation.StorageSegment)
			}
			snap := tab.Rel.Snapshot()
			if snap.Zones == nil {
				t.Fatal("opened snapshot has no zone map")
			}
			wantParts := 0
			if rows > 0 {
				wantParts = (rows + relation.DefaultZoneRows - 1) / relation.DefaultZoneRows
			}
			if snap.Zones.Parts() != wantParts && rows > 0 {
				t.Fatalf("zones: %d parts, want %d", snap.Zones.Parts(), wantParts)
			}
			// Zone maps read from disk must match those computed fresh.
			rebuilt := relation.BuildZones(snap.Cols, snap.Rows, relation.DefaultZoneRows)
			for i, z := range rebuilt.Z {
				if snap.Zones.Z[i] != z {
					t.Fatalf("zone %d: disk %+v != rebuilt %+v", i, snap.Zones.Z[i], z)
				}
			}
		})
	}
}

func TestRoundTripDictionary(t *testing.T) {
	r := sampleRelation(t, 500)
	path := filepath.Join(t.TempDir(), "sample"+Ext)
	if _, err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	tab, err := Open("sample", path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	want := r.Snapshot().Cols[2]
	got := tab.Rel.Snapshot().Cols[2]
	if len(got.Codes) != len(want.Codes) || got.Dict == nil {
		t.Fatalf("dictionary not restored: %d codes, dict=%v", len(got.Codes), got.Dict)
	}
	for i := range want.Codes {
		if want.Codes[i] != got.Codes[i] {
			t.Fatalf("code %d: %d != %d", i, want.Codes[i], got.Codes[i])
		}
	}
	for i := range want.Dict.Strs {
		if want.Dict.Strs[i] != got.Dict.Strs[i] || want.Dict.Hashes[i] != got.Dict.Hashes[i] {
			t.Fatalf("dict entry %d differs", i)
		}
	}
}

func TestAppendAfterOpen(t *testing.T) {
	r := sampleRelation(t, 100)
	path := filepath.Join(t.TempDir(), "sample"+Ext)
	if _, err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	tab, err := Open("sample", path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	before := tab.Rel.Snapshot()
	tab.Rel.MustAppend(relation.Int(7), relation.Float(7.5), relation.String_("delta"))
	if tab.Rel.Len() != 101 {
		t.Fatalf("Len = %d, want 101", tab.Rel.Len())
	}
	after := tab.Rel.Snapshot()
	if after == before {
		t.Fatal("append did not invalidate the snapshot")
	}
	if before.Rows != 100 || after.Rows != 101 {
		t.Fatalf("snapshot rows %d/%d, want 100/101", before.Rows, after.Rows)
	}
	// The merged snapshot must assign a fresh lineage ID past the base max.
	if id := tab.Rel.ID(100); id != tab.Rel.ID(99)+1 {
		t.Fatalf("appended row got ID %d, want %d", id, tab.Rel.ID(99)+1)
	}
	if err := tab.Rel.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendLeavesImageUnchanged: appends to a segment-backed table that
// cross a zone boundary and add dictionary strings copy its columns to
// the heap instead of writing into the image they alias, both for a
// mapped file and for a heap image; a reopen reads the pre-append table.
func TestAppendLeavesImageUnchanged(t *testing.T) {
	r := sampleRelation(t, relation.DefaultZoneRows+5)
	path := filepath.Join(t.TempDir(), "sample"+Ext)
	if _, err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRows := func(rel *relation.Relation) {
		for i := 0; i < relation.DefaultZoneRows; i++ {
			rel.MustAppend(relation.Int(int64(-i)), relation.Float(float64(i)/3), relation.String_(fmt.Sprintf("new%d", i%3)))
		}
		if s := rel.Snapshot(); s.Rows != r.Len()+relation.DefaultZoneRows {
			t.Fatalf("snapshot after appends has %d rows, want %d", s.Rows, r.Len()+relation.DefaultZoneRows)
		}
	}

	tab, err := Open("sample", path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	appendRows(tab.Rel)
	if !bytes.Equal(tab.data, orig) {
		t.Fatal("appends wrote into the mapped image")
	}
	heap := append([]byte(nil), orig...)
	rel, err := Decode("sample", path, heap)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(rel)
	if !bytes.Equal(heap, orig) {
		t.Fatal("appends wrote into the decoded heap image")
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, orig) {
		t.Fatalf("segment file changed by appends (err=%v)", err)
	}
	re, err := Open("sample", path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertEqualRelations(t, r, re.Rel)
}

func corruptAt(t *testing.T, path string, off int64) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(b))
	}
	b[off] ^= 0xff
	out := path + ".corrupt"
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorruption(t *testing.T) {
	r := sampleRelation(t, 2*relation.DefaultZoneRows)
	dir := t.TempDir()
	path := filepath.Join(dir, "sample"+Ext)
	if _, err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, p string) {
		t.Helper()
		_, err := Open("sample", p)
		if err == nil {
			t.Fatal("Open succeeded on corrupt file")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v does not match ErrCorrupt", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CorruptError", err)
		}
		if ce.Path == "" || ce.Offset < 0 {
			t.Fatalf("CorruptError missing location: %+v", ce)
		}
	}

	t.Run("empty", func(t *testing.T) {
		p := filepath.Join(dir, "empty"+Ext)
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
	t.Run("bad head magic", func(t *testing.T) { check(t, corruptAt(t, path, 0)) })
	t.Run("bad version", func(t *testing.T) { check(t, corruptAt(t, path, 8)) })
	t.Run("bad header crc", func(t *testing.T) { check(t, corruptAt(t, path, 16)) })
	t.Run("bad tail magic", func(t *testing.T) { check(t, corruptAt(t, path, -1)) })
	t.Run("bad footer crc", func(t *testing.T) {
		// Flip a bit inside the zone footer; the trailer CRC must catch it.
		check(t, corruptAt(t, path, int64(len(whole))-trailerSize-8))
	})
	t.Run("truncated", func(t *testing.T) {
		for _, keep := range []int{4, len(headMagic) + 8, len(whole) / 2, len(whole) - 1} {
			p := filepath.Join(dir, fmt.Sprintf("trunc%d%s", keep, Ext))
			if err := os.WriteFile(p, whole[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, p)
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		// A copy missing its last page, then zero-padded back to size —
		// what a torn write can leave behind.
		b := append([]byte(nil), whole...)
		for i := len(b) - 4096; i < len(b); i++ {
			b[i] = 0
		}
		p := filepath.Join(dir, "torn"+Ext)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
	t.Run("not a segment", func(t *testing.T) {
		p := filepath.Join(dir, "junk"+Ext)
		if err := os.WriteFile(p, []byte("id,a,b\n1,2,3\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
}

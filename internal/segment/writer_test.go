package segment

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/tpch"
)

// referenceEncode is the segment format spelled out one value at a time,
// straight from the layout in format.go. The bulk writer must produce
// exactly these bytes.
func referenceEncode(schema *relation.Schema, snap *relation.Snapshot) []byte {
	var b []byte
	align := func() {
		for len(b)%8 != 0 {
			b = append(b, 0)
		}
	}
	body := encodeHeaderBody(schema, snap.Rows, snap.Zones.ZoneRows)
	b = append(b, headMagic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = append(b, body...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	align()
	for _, c := range snap.Cols {
		switch c.Kind {
		case relation.KindInt:
			for _, v := range c.Ints {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		case relation.KindFloat:
			for _, v := range c.Floats {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		default:
			var blobLen uint64
			for _, s := range c.Dict.Strs {
				blobLen += uint64(len(s))
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(len(c.Dict.Strs)))
			b = binary.LittleEndian.AppendUint64(b, blobLen)
			var off uint32
			for _, s := range c.Dict.Strs {
				b = binary.LittleEndian.AppendUint32(b, off)
				off += uint32(len(s))
			}
			b = binary.LittleEndian.AppendUint32(b, off)
			align()
			for _, s := range c.Dict.Strs {
				b = append(b, s...)
			}
			align()
			for _, h := range c.Dict.Hashes {
				b = binary.LittleEndian.AppendUint64(b, h)
			}
			for _, code := range c.Codes {
				b = binary.LittleEndian.AppendUint32(b, uint32(code))
			}
			align()
		}
		align()
	}
	for _, id := range snap.IDs {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	align()
	footerOff := len(b)
	for _, z := range snap.Zones.Z {
		b = binary.LittleEndian.AppendUint64(b, uint64(z.MinI))
		b = binary.LittleEndian.AppendUint64(b, uint64(z.MaxI))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.MinF))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.MaxF))
		b = binary.LittleEndian.AppendUint32(b, z.Nulls)
		b = binary.LittleEndian.AppendUint32(b, z.Flags)
	}
	footer := b[footerOff:]
	b = binary.LittleEndian.AppendUint64(b, uint64(footerOff))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(footer)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(footer))
	b = binary.LittleEndian.AppendUint32(b, Version)
	return append(b, tailMagic...)
}

// encodeWith runs the segment writer over rel with the given section
// path: native (the column's own bytes) or chunked encoding.
func encodeWith(t *testing.T, rel *relation.Relation, native bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	w := &segWriter{w: bw, native: native}
	w.writeAll(rel.Schema(), rel.Snapshot())
	if w.err == nil {
		w.err = bw.Flush()
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.off != int64(buf.Len()) {
		t.Fatalf("writer counted %d bytes, wrote %d", w.off, buf.Len())
	}
	return buf.Bytes()
}

// TestSegmentWriterMatchesReference: the bulk writer's bytes equal the
// per-value reference encoding on both its paths, over int, float and
// string columns, empty tables, row counts off the encode chunk and
// partial last zones; and Write puts those bytes in the file.
func TestSegmentWriterMatchesReference(t *testing.T) {
	rowCounts := []int{0, 1, 7, encodeChunk - 1, encodeChunk, encodeChunk + 1,
		relation.DefaultZoneRows + 5, 2*encodeChunk + 3}
	for _, rows := range rowCounts {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			r := sampleRelation(t, rows)
			want := referenceEncode(r.Schema(), r.Snapshot())
			for _, native := range []bool{true, false} {
				if native && !hostLittleEndian {
					continue
				}
				if got := encodeWith(t, r, native); !bytes.Equal(got, want) {
					t.Fatalf("native=%v: %d bytes differ from the %d-byte reference at offset %d",
						native, len(got), len(want), firstDiff(got, want))
				}
			}
			path := filepath.Join(t.TempDir(), "sample"+Ext)
			n, err := Write(path, r)
			if err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, want) || n != int64(len(want)) {
				t.Fatalf("Write: %d bytes (reported %d) differ from the %d-byte reference at offset %d",
					len(file), n, len(want), firstDiff(file, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAppendAfterOpenUnorderedIDs: a segment's next auto-ID is one past
// its largest lineage ID wherever that ID sits, and an explicit ID above
// it moves the next auto-ID past that.
func TestAppendAfterOpenUnorderedIDs(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "k", Kind: relation.KindInt})
	r := relation.MustNew("ids", schema)
	for _, id := range []lineage.TupleID{40, 900, 7, 12} {
		if err := r.AppendWithID(id, relation.Tuple{relation.Int(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "ids"+Ext)
	if _, err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	open := func() *relation.Relation {
		tab, err := Open("ids", path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tab.Close() })
		return tab.Rel
	}

	t.Run("append", func(t *testing.T) {
		rel := open()
		rel.MustAppend(relation.Int(1))
		rel.MustAppend(relation.Int(2))
		if a, b := rel.ID(4), rel.ID(5); a != 901 || b != 902 {
			t.Fatalf("appended IDs %d, %d, want 901, 902", a, b)
		}
		if err := rel.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("explicit ID above the max, then append", func(t *testing.T) {
		rel := open()
		if err := rel.AppendWithID(5000, relation.Tuple{relation.Int(3)}); err != nil {
			t.Fatal(err)
		}
		rel.MustAppend(relation.Int(4))
		if id := rel.ID(5); id != 5001 {
			t.Fatalf("appended ID %d, want 5001", id)
		}
	})
	t.Run("explicit ID below the max, then append", func(t *testing.T) {
		rel := open()
		if err := rel.AppendWithID(100, relation.Tuple{relation.Int(3)}); err != nil {
			t.Fatal(err)
		}
		rel.MustAppend(relation.Int(4))
		if id := rel.ID(5); id != 901 {
			t.Fatalf("appended ID %d, want 901", id)
		}
	})
}

// BenchmarkSegmentWrite times segment.write_s: writing the four TPC-H
// tables at 250 k orders, the benchmark's scale, as gusgen does.
func BenchmarkSegmentWrite(b *testing.B) {
	tables, err := tpch.Generate(tpch.Config{Orders: 250000, Customers: 25000, Parts: 31250, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rel := range tables.All() {
			if _, err := Write(filepath.Join(dir, rel.Name()+Ext), rel); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "write_s")
}

package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
)

// Write serializes the relation's columnar snapshot, with its dictionaries
// and zone map, to path in segment format, returning the bytes written. The
// file is written to a temporary sibling and renamed into place, so readers
// never observe a half-written segment under a crash — they see either the
// old file or the new one.
func Write(path string, rel *relation.Relation) (int64, error) {
	snap := rel.Snapshot()
	schema := rel.Schema()

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	w := &segWriter{w: bufio.NewWriterSize(f, 1<<16)}
	w.writeAll(schema, snap)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err == nil {
		w.err = f.Sync()
	}
	if cerr := f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("segment %s: %w", path, w.err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return w.off, nil
}

type segWriter struct {
	w   *bufio.Writer
	off int64
	err error
	buf [8]byte
}

func (w *segWriter) bytes(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	w.err = err
}

func (w *segWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.bytes(w.buf[:4])
}

func (w *segWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.bytes(w.buf[:8])
}

func (w *segWriter) align8() {
	var zero [8]byte
	if p := pad8(w.off); p > 0 {
		w.bytes(zero[:p])
	}
}

func (w *segWriter) writeAll(schema *relation.Schema, snap *relation.Snapshot) {
	zones := snap.Zones
	// Header.
	body := encodeHeaderBody(schema, snap.Rows, zones.ZoneRows)
	w.bytes([]byte(headMagic))
	w.u32(Version)
	w.u32(uint32(len(body)))
	w.bytes(body)
	w.u32(crc32.ChecksumIEEE(body))
	w.align8()

	// Column sections.
	for _, c := range snap.Cols {
		switch c.Kind {
		case relation.KindInt:
			for _, v := range c.Ints {
				w.u64(uint64(v))
			}
		case relation.KindFloat:
			for _, v := range c.Floats {
				w.u64(math.Float64bits(v))
			}
		default:
			w.writeStringCol(c)
		}
		w.align8()
	}

	// Lineage IDs.
	for _, id := range snap.IDs {
		w.u64(uint64(id))
	}
	w.align8()

	// Zone-map footer, CRC'd so a reader trusts skipping decisions.
	footerOff := w.off
	crc := crc32.NewIEEE()
	var zb [zoneEntrySize]byte
	for _, z := range zones.Z {
		binary.LittleEndian.PutUint64(zb[0:], uint64(z.MinI))
		binary.LittleEndian.PutUint64(zb[8:], uint64(z.MaxI))
		binary.LittleEndian.PutUint64(zb[16:], math.Float64bits(z.MinF))
		binary.LittleEndian.PutUint64(zb[24:], math.Float64bits(z.MaxF))
		binary.LittleEndian.PutUint32(zb[32:], z.Nulls)
		binary.LittleEndian.PutUint32(zb[36:], z.Flags)
		crc.Write(zb[:])
		w.bytes(zb[:])
	}

	// Trailer.
	w.u64(uint64(footerOff))
	w.u64(uint64(len(zones.Z)) * zoneEntrySize)
	w.u32(crc.Sum32())
	w.u32(Version)
	w.bytes([]byte(tailMagic))
}

func (w *segWriter) writeStringCol(c relation.ColumnSlice) {
	dict := c.Dict
	var blobLen uint64
	for _, s := range dict.Strs {
		blobLen += uint64(len(s))
	}
	w.u64(uint64(len(dict.Strs)))
	w.u64(blobLen)
	var off uint32
	for _, s := range dict.Strs {
		w.u32(off)
		off += uint32(len(s))
	}
	w.u32(off)
	w.align8()
	for _, s := range dict.Strs {
		w.bytes([]byte(s))
	}
	w.align8()
	for _, h := range dict.Hashes {
		w.u64(h)
	}
	for _, code := range c.Codes {
		w.u32(uint32(code))
	}
	w.align8()
}

func encodeHeaderBody(schema *relation.Schema, rows, zoneRows int) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(zoneRows))
	b = binary.LittleEndian.AppendUint32(b, uint32(schema.Len()))
	for _, c := range schema.Columns() {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
		b = append(b, c.Name...)
		b = append(b, byte(c.Kind))
	}
	return b
}

// Decode parses a segment image held in data and returns a relation whose
// columnar base aliases data zero-copy (numeric values, string codes,
// dictionary hashes and lineage IDs all point into data; only the per-row
// string headers are materialized). data is typically a memory mapping, but
// any byte slice works — which is what FuzzSegmentDecode exercises. path is
// used only in error messages.
//
// Every structural invariant is validated before any aliasing, so corrupt
// input yields a *CorruptError, never a panic or a short table.
func Decode(name, path string, data []byte) (*relation.Relation, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))&7 != 0 {
		// The zero-copy casts need an 8-aligned base. mmap and any heap
		// allocation this large are aligned; fuzzer-provided buffers may
		// not be, so realign by copying.
		data = append(make([]byte, 0, len(data)), data...)
	}
	d := &decoder{path: path, data: data}
	schema, snap, err := d.run()
	if err != nil {
		return nil, err
	}
	rel, err := relation.FromSnapshot(name, schema, snap, relation.StorageSegment)
	if err != nil {
		return nil, corrupt(path, 0, "%v", err)
	}
	return rel, nil
}

type decoder struct {
	path string
	data []byte
}

func (d *decoder) run() (*relation.Schema, *relation.Snapshot, error) {
	data := d.data
	// ---- Header ----
	if len(data) < len(headMagic)+8 {
		return nil, nil, corrupt(d.path, 0, "file too short (%d bytes) for header", len(data))
	}
	if string(data[:len(headMagic)]) != headMagic {
		return nil, nil, corrupt(d.path, 0, "bad magic %q, want %q", data[:len(headMagic)], headMagic)
	}
	off := int64(len(headMagic))
	if v := binary.LittleEndian.Uint32(data[off:]); v != Version {
		return nil, nil, corrupt(d.path, off, "format version %d, this build reads version %d", v, Version)
	}
	off += 4
	headerLen := int64(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if headerLen > maxHeaderLen || off+headerLen+4 > int64(len(data)) {
		return nil, nil, corrupt(d.path, off-4, "header length %d exceeds file bounds", headerLen)
	}
	body := data[off : off+headerLen]
	off += headerLen
	wantCRC := binary.LittleEndian.Uint32(data[off:])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, nil, corrupt(d.path, off, "header checksum mismatch: computed %08x, stored %08x", got, wantCRC)
	}
	off += 4
	off += pad8(off)

	schema, rows, zoneRows, err := d.parseHeaderBody(body, int64(len(headMagic))+8)
	if err != nil {
		return nil, nil, err
	}

	// ---- Trailer ----
	if int64(len(data)) < off+trailerSize {
		return nil, nil, corrupt(d.path, int64(len(data)), "file too short for trailer (truncated?)")
	}
	tr := int64(len(data)) - trailerSize
	if string(data[tr+24:]) != tailMagic {
		return nil, nil, corrupt(d.path, tr+24, "bad trailer magic (truncated or torn file)")
	}
	if v := binary.LittleEndian.Uint32(data[tr+20:]); v != Version {
		return nil, nil, corrupt(d.path, tr+20, "trailer version %d, want %d", v, Version)
	}
	footerOff := int64(binary.LittleEndian.Uint64(data[tr:]))
	footerLen := int64(binary.LittleEndian.Uint64(data[tr+8:]))
	footerCRC := binary.LittleEndian.Uint32(data[tr+16:])
	if footerOff < 0 || footerLen < 0 || footerOff > tr || footerLen > tr-footerOff {
		return nil, nil, corrupt(d.path, tr, "footer [%d,+%d) outside file of %d bytes", footerOff, footerLen, len(data))
	}

	parts := 0
	if rows > 0 {
		parts = (rows + zoneRows - 1) / zoneRows
	}
	if wantLen := int64(parts) * int64(schema.Len()) * zoneEntrySize; footerLen != wantLen {
		return nil, nil, corrupt(d.path, tr+8, "footer length %d, want %d for %d partitions × %d columns", footerLen, wantLen, parts, schema.Len())
	}

	// ---- Column sections: walk the layout the header implies ----
	snap := &relation.Snapshot{Cols: make([]relation.ColumnSlice, schema.Len()), Rows: rows}
	for j := 0; j < schema.Len(); j++ {
		kind := schema.Col(j).Kind
		snap.Cols[j].Kind = kind
		switch kind {
		case relation.KindInt:
			s, next, err := d.alias8(off, rows, footerOff, schema.Col(j).Name)
			if err != nil {
				return nil, nil, err
			}
			snap.Cols[j].Ints = asInt64(s)
			off = next
		case relation.KindFloat:
			s, next, err := d.alias8(off, rows, footerOff, schema.Col(j).Name)
			if err != nil {
				return nil, nil, err
			}
			snap.Cols[j].Floats = asFloat64(s)
			off = next
		default:
			next, err := d.stringCol(&snap.Cols[j], off, rows, footerOff, schema.Col(j).Name)
			if err != nil {
				return nil, nil, err
			}
			off = next
		}
	}
	s, next, err := d.alias8(off, rows, footerOff, "#id")
	if err != nil {
		return nil, nil, err
	}
	snap.IDs = asTupleIDs(s)
	off = next

	if off != footerOff {
		return nil, nil, corrupt(d.path, off, "column sections end at %d but footer starts at %d", off, footerOff)
	}
	if footerOff+footerLen != tr {
		return nil, nil, corrupt(d.path, footerOff, "footer [%d,%d) does not meet trailer at %d", footerOff, footerOff+footerLen, tr)
	}

	// ---- Zone-map footer ----
	fb := data[footerOff : footerOff+footerLen]
	if got := crc32.ChecksumIEEE(fb); got != footerCRC {
		return nil, nil, corrupt(d.path, footerOff, "zone-map checksum mismatch: computed %08x, stored %08x", got, footerCRC)
	}
	zones := &relation.Zones{ZoneRows: zoneRows, NCols: schema.Len(), Z: make([]relation.Zone, parts*schema.Len())}
	for i := range zones.Z {
		zb := fb[i*zoneEntrySize:]
		zones.Z[i] = relation.Zone{
			MinI:  int64(binary.LittleEndian.Uint64(zb[0:])),
			MaxI:  int64(binary.LittleEndian.Uint64(zb[8:])),
			MinF:  math.Float64frombits(binary.LittleEndian.Uint64(zb[16:])),
			MaxF:  math.Float64frombits(binary.LittleEndian.Uint64(zb[24:])),
			Nulls: binary.LittleEndian.Uint32(zb[32:]),
			Flags: binary.LittleEndian.Uint32(zb[36:]),
		}
	}
	snap.Zones = zones
	return schema, snap, nil
}

func (d *decoder) parseHeaderBody(body []byte, base int64) (*relation.Schema, int, int, error) {
	if len(body) < 16 {
		return nil, 0, 0, corrupt(d.path, base, "header body %d bytes, want at least 16", len(body))
	}
	rows64 := binary.LittleEndian.Uint64(body[0:])
	zoneRows := int(binary.LittleEndian.Uint32(body[8:]))
	ncols := int(binary.LittleEndian.Uint32(body[12:]))
	// Each row takes at least 8 bytes (lineage ID), so a row count beyond
	// the file size is corruption, not a big table.
	if rows64 > uint64(len(d.data)) {
		return nil, 0, 0, corrupt(d.path, base, "row count %d exceeds file size %d", rows64, len(d.data))
	}
	if zoneRows <= 0 {
		return nil, 0, 0, corrupt(d.path, base+8, "zone partition size %d, want > 0", zoneRows)
	}
	if ncols <= 0 || ncols > len(body) {
		return nil, 0, 0, corrupt(d.path, base+12, "column count %d out of range", ncols)
	}
	cols := make([]relation.Column, 0, ncols)
	p := 16
	for j := 0; j < ncols; j++ {
		if p+2 > len(body) {
			return nil, 0, 0, corrupt(d.path, base+int64(p), "header body truncated in column %d", j)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[p:]))
		p += 2
		if p+nameLen+1 > len(body) {
			return nil, 0, 0, corrupt(d.path, base+int64(p), "header body truncated in column %d name", j)
		}
		name := string(body[p : p+nameLen])
		p += nameLen
		kind := relation.Kind(body[p])
		p++
		if kind != relation.KindInt && kind != relation.KindFloat && kind != relation.KindString {
			return nil, 0, 0, corrupt(d.path, base+int64(p)-1, "column %q has unknown kind %d", name, kind)
		}
		cols = append(cols, relation.Column{Name: name, Kind: kind})
	}
	if p != len(body) {
		return nil, 0, 0, corrupt(d.path, base+int64(p), "%d trailing bytes after schema", len(body)-p)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, 0, 0, corrupt(d.path, base+16, "%v", err)
	}
	return schema, int(rows64), zoneRows, nil
}

// alias8 bounds-checks and returns the rows×8-byte section at off.
func (d *decoder) alias8(off int64, rows int, limit int64, col string) ([]byte, int64, error) {
	end := off + int64(rows)*8
	if off < 0 || end > limit || end > int64(len(d.data)) {
		return nil, 0, corrupt(d.path, off, "column %q section [%d,%d) exceeds data region", col, off, end)
	}
	return d.data[off:end:end], end, nil
}

func (d *decoder) stringCol(c *relation.ColumnSlice, off int64, rows int, limit int64, col string) (int64, error) {
	if off+16 > limit {
		return 0, corrupt(d.path, off, "column %q dictionary header exceeds data region", col)
	}
	dictN64 := binary.LittleEndian.Uint64(d.data[off:])
	blobLen := int64(binary.LittleEndian.Uint64(d.data[off+8:]))
	off += 16
	if dictN64 > uint64(limit) || blobLen < 0 || blobLen > int64(len(d.data)) {
		return 0, corrupt(d.path, off-16, "column %q dictionary of %d entries / %d blob bytes exceeds file", col, dictN64, blobLen)
	}
	dictN := int(dictN64)
	if rows > 0 && dictN == 0 {
		return 0, corrupt(d.path, off-16, "column %q has %d rows but an empty dictionary", col, rows)
	}

	offsEnd := off + int64(dictN+1)*4
	if offsEnd > limit {
		return 0, corrupt(d.path, off, "column %q dictionary offsets exceed data region", col)
	}
	offs := asUint32(d.data[off:offsEnd:offsEnd])
	off = offsEnd + pad8(offsEnd)

	blobEnd := off + blobLen
	if blobEnd > limit {
		return 0, corrupt(d.path, off, "column %q dictionary blob exceeds data region", col)
	}
	blob := d.data[off:blobEnd:blobEnd]
	off = blobEnd + pad8(blobEnd)

	hashEnd := off + int64(dictN)*8
	if hashEnd > limit {
		return 0, corrupt(d.path, off, "column %q dictionary hashes exceed data region", col)
	}
	hashes := asUint64(d.data[off:hashEnd:hashEnd])
	off = hashEnd

	codesEnd := off + int64(rows)*4
	if codesEnd > limit {
		return 0, corrupt(d.path, off, "column %q codes exceed data region", col)
	}
	codes := asInt32(d.data[off:codesEnd:codesEnd])

	// Validate dictionary offsets before aliasing strings into the blob.
	if offs[0] != 0 {
		return 0, corrupt(d.path, offsEnd-int64(dictN+1)*4, "column %q dictionary offsets start at %d, want 0", col, offs[0])
	}
	for i := 0; i < dictN; i++ {
		if offs[i+1] < offs[i] || int64(offs[i+1]) > blobLen {
			return 0, corrupt(d.path, offsEnd, "column %q dictionary offset %d (%d) out of order or past blob end %d", col, i+1, offs[i+1], blobLen)
		}
	}
	if int64(offs[dictN]) != blobLen {
		return 0, corrupt(d.path, offsEnd, "column %q dictionary covers %d blob bytes, blob is %d", col, offs[dictN], blobLen)
	}
	dict := &relation.StrDict{Strs: make([]string, dictN), Hashes: hashes}
	for i := 0; i < dictN; i++ {
		if n := offs[i+1] - offs[i]; n > 0 {
			dict.Strs[i] = unsafe.String(&blob[offs[i]], int(n))
		}
	}
	strs := make([]string, rows)
	for i, code := range codes {
		if code < 0 || int(code) >= dictN {
			return 0, corrupt(d.path, codesEnd-int64(rows-i)*4, "column %q row %d: code %d outside dictionary of %d", col, i, code, dictN)
		}
		strs[i] = dict.Strs[code]
	}
	c.Strs, c.Codes, c.Dict = strs, codes, dict
	return codesEnd + pad8(codesEnd), nil
}

// ---- zero-copy reinterpretation ----
//
// The slices returned alias their argument. The casts assume little-endian
// byte order, which every supported target is; a big-endian port would
// decode these sections by copying instead.

var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func asInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func asFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func asUint64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func asInt32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func asUint32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func asTupleIDs(b []byte) []lineage.TupleID {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*lineage.TupleID)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]lineage.TupleID, len(b)/8)
	for i := range out {
		out[i] = lineage.TupleID(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

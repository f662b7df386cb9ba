// Persistent storage: the public API over internal/segment's mmap-backed
// columnar files. A DB can Save its catalog as one segment file per table,
// reopen a saved directory with OpenDir (columns alias the mapped file —
// no parse, no copy), and attach individual segments at runtime through
// AttachSegment or the `ATTACH SEGMENT '<path>'` statement. Segment-backed
// tables behave exactly like resident ones — same queries, same
// bit-identical results — and still accept appends under snapshot
// isolation: the first copies the mapped columns to the heap, and the file
// is never modified.
package gus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/synopsis"
)

// SegmentExt is the file extension Save writes and OpenDir/AttachSegmentDir
// look for.
const SegmentExt = segment.Ext

// segState tracks the open segment handles backing a DB's segment-mode
// tables — what Close unmaps and the gus_segment_bytes_mapped gauge sums.
// Guarded by its own mutex so the metrics exporter never contends with the
// catalog lock.
type segState struct {
	mu   sync.Mutex
	open []*segment.Table
}

func (s *segState) add(t *segment.Table) {
	s.mu.Lock()
	s.open = append(s.open, t)
	s.mu.Unlock()
}

func (s *segState) bytesMapped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, t := range s.open {
		n += t.BytesMapped()
	}
	return n
}

func (s *segState) closeAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, t := range s.open {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.open = nil
	return first
}

// TableInfo describes one registered table — what gusserve's GET /tables
// returns per entry.
type TableInfo struct {
	// Name is the table's registered name.
	Name string
	// Rows is the current tuple count, appended rows included.
	Rows int
	// Columns is the table's schema in column order.
	Columns []Column
	// Storage is "resident" (Go heap) or "segment" (mmap-backed file).
	Storage string
	// Synopses lists the materialized sample synopses attached to this
	// table (empty when none).
	Synopses []SynopsisInfo `json:",omitempty"`
}

// Tables describes every registered table, sorted by name.
func (db *DB) Tables() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]TableInfo, 0, len(db.tables))
	for name, rel := range db.tables {
		info := TableInfo{Name: name, Rows: rel.Len(), Storage: rel.StorageMode(), Synopses: db.synopsisInfosForLocked(name)}
		for _, c := range rel.Schema().Columns() {
			var t ColumnType
			switch c.Kind {
			case relation.KindInt:
				t = Int
			case relation.KindFloat:
				t = Float
			default:
				t = String
			}
			info.Columns = append(info.Columns, Column{Name: c.Name, Type: t})
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Save writes every registered table to dir as a segment file named
// <table>.gusseg, creating dir if needed. Files are written to a temporary
// name and renamed into place, so a crash mid-save never leaves a torn
// segment under the final name; an existing segment for a table is
// replaced. The saved image is the tables' state at call time (snapshot
// isolation: concurrent appends land in memory, not in the files).
func (db *DB) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("gus: save: %w", err)
	}
	db.mu.RLock()
	rels := make([]*relation.Relation, 0, len(db.tables))
	for _, rel := range db.tables {
		rels = append(rels, rel)
	}
	db.mu.RUnlock()
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name() < rels[j].Name() })
	for _, rel := range rels {
		path := filepath.Join(dir, rel.Name()+segment.Ext)
		if _, err := segment.Write(path, rel); err != nil {
			return fmt.Errorf("gus: save table %q: %w", rel.Name(), err)
		}
	}
	return nil
}

// OpenDir opens a database from a directory of segment files (as written
// by Save): every *.gusseg file becomes a table named after the file. The
// open is O(metadata) — column data is mapped, not read — so a multi-GB
// directory opens in milliseconds. Corrupt files fail the open with an
// error matching ErrCorruptSegment. Call Close when done to unmap.
func OpenDir(dir string) (*DB, error) {
	db := Open()
	if err := db.AttachSegmentDir(dir); err != nil {
		db.Close()
		return nil, err
	}
	if len(db.tables) == 0 {
		return nil, fmt.Errorf("gus: no %s segments in %q", segment.Ext, dir)
	}
	return db, nil
}

// AttachSegment registers one segment file as a table named after the file
// (basename minus the .gusseg extension). The file's columns are mapped
// into memory and alias the file until Close. Truncated, torn or
// version-mismatched files are rejected with an error matching
// ErrCorruptSegment (and *SegmentError for the file/offset detail).
func (db *DB) AttachSegment(path string) error {
	name := strings.TrimSuffix(filepath.Base(path), segment.Ext)
	t, err := segment.Open(name, path)
	if err != nil {
		return err
	}
	db.mu.Lock()
	if _, dup := db.tables[name]; dup {
		db.mu.Unlock()
		t.Close()
		return fmt.Errorf("gus: table %q already exists", name)
	}
	db.tables[name] = t.Rel
	db.gen.Add(1)
	db.mu.Unlock()
	db.segs.add(t)
	return nil
}

// AttachSegmentDir attaches every *.gusseg file in dir, in name order. The
// first failure stops the walk and is returned; tables attached before it
// stay attached.
func (db *DB) AttachSegmentDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("gus: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segment.Ext) {
			continue
		}
		if err := db.AttachSegment(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Close unmaps every attached segment and empties the catalog. The DB and
// any Relation/Stmt derived from it must not be used afterwards — mapped
// column memory is gone. A DB with no attached segments may be Closed too
// (it just clears the catalog). Close is not concurrency-safe against
// in-flight queries; stop them first.
func (db *DB) Close() error {
	// Stop the shadow auditor before tearing down the catalog: its replays
	// take the read-lock and touch mapped column memory.
	db.DisableAuditor()
	db.mu.Lock()
	db.tables = map[string]*relation.Relation{}
	db.syns = synopsis.NewRegistry()
	db.gen.Add(1)
	db.mu.Unlock()
	return db.segs.closeAll()
}

// parseAttachSegment recognizes the `ATTACH SEGMENT '<path>'` statement
// (case-insensitive keywords, optional trailing semicolon) and returns the
// quoted path. It is a statement-level command, not part of the query
// grammar, so it is intercepted before parsing.
func parseAttachSegment(sql string) (string, bool) {
	s := strings.TrimSpace(sql)
	s = strings.TrimSuffix(s, ";")
	s = strings.TrimSpace(s)
	const kw1, kw2 = "ATTACH", "SEGMENT"
	if len(s) < len(kw1) || !strings.EqualFold(s[:len(kw1)], kw1) {
		return "", false
	}
	s = strings.TrimSpace(s[len(kw1):])
	if len(s) < len(kw2) || !strings.EqualFold(s[:len(kw2)], kw2) {
		return "", false
	}
	s = strings.TrimSpace(s[len(kw2):])
	if len(s) < 2 || s[0] != '\'' || s[len(s)-1] != '\'' {
		return "", false
	}
	path := s[1 : len(s)-1]
	if path == "" || strings.Contains(path, "'") {
		return "", false
	}
	return path, true
}

// execAttachSegment runs an intercepted ATTACH SEGMENT statement: a file
// path attaches one segment, a directory attaches every segment in it.
func (db *DB) execAttachSegment(sql, path string, o queryOptions) (*Result, error) {
	sp := o.trace.Begin("attach-segment", path, -1)
	before := len(db.TableNames())
	fi, err := os.Stat(path)
	if err == nil && fi.IsDir() {
		err = db.AttachSegmentDir(path)
	} else {
		err = db.AttachSegment(path)
	}
	if err != nil {
		return nil, db.fail(&o, err)
	}
	names := db.TableNames()
	o.trace.End(sp, -1, int64(len(names)-before))
	if o.trace != nil {
		o.trace.SetPlanTree(fmt.Sprintf("AttachSegment(%s)", path))
		o.trace.Finish(sql, "attach segment ?")
	}
	res := &Result{PlanText: fmt.Sprintf("AttachSegment(%s): %d tables attached", path, len(names)-before)}
	if o.trace != nil {
		res.ExplainText = o.trace.Format()
	}
	return res, nil
}

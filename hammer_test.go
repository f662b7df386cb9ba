package gus

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestInsertWhileQueryHammer drives the two mutation paths the engine
// maintains incrementally — synopsis append-maintenance and in-place typed
// appends to a segment-backed table, whose first append copies the mapped
// columns to the heap — from writer goroutines while reader goroutines run
// sampled queries (some served from the synopsis), exact scans, GROUP BYs
// over a string column whose inserts add dictionary entries, and catalog
// listings. The race detector is the main assertion; the bounds checks
// catch torn reads that happen to be race-free (e.g. a count outside
// [base, final]).
func TestInsertWhileQueryHammer(t *testing.T) {
	const (
		base      = 2048
		writers   = 4
		perWriter = 150
		readers   = 4
		baseTags  = 4
		newTags   = 5
		allTags   = baseTags + writers*newTags
	)
	// Seed a resident DB, persist it, and reopen segment-backed so every
	// hammered insert appends to a table that started mapped.
	src := Open()
	stb, err := src.CreateTable("ev", Column{Name: "k", Type: Int}, Column{Name: "v", Type: Float}, Column{Name: "tag", Type: String})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base; i++ {
		if err := stb.Insert(i, float64(i%97)+0.5, fmt.Sprintf("s%d", i%baseTags)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateSynopsis(SynopsisSpec{Name: "ev_syn", Table: "ev", Rate: 0.25, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Table("ev")
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, writers+readers)
	writersDone := make(chan struct{})
	var wwg, rwg sync.WaitGroup

	wwg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perWriter; i++ {
				// Each writer adds newTags strings the dictionary has not seen.
				if err := tb.Insert(base+w*perWriter+i, float64(i%31)+0.25, fmt.Sprintf("w%d-%d", w, i%newTags)); err != nil {
					errc <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	rwg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer rwg.Done()
			const total = base + writers*perWriter
			for iter := 0; ; iter++ {
				select {
				case <-writersDone:
					return
				default:
				}
				switch iter % 4 {
				case 0:
					// A coordinated REPEATABLE shape the synopsis can serve.
					res, err := db.Query(`SELECT SUM(v) FROM ev TABLESAMPLE BERNOULLI(10) REPEATABLE(7)`, WithSeed(uint64(r+1)))
					if err != nil {
						errc <- fmt.Errorf("reader %d sampled query: %w", r, err)
						return
					}
					if res.Values[0].Estimate < 0 {
						errc <- fmt.Errorf("reader %d: negative SUM estimate %v", r, res.Values[0].Estimate)
						return
					}
				case 1:
					res, err := db.Exact(`SELECT COUNT(*) AS n FROM ev`)
					if err != nil {
						errc <- fmt.Errorf("reader %d exact count: %w", r, err)
						return
					}
					if n := res.Values[0].Value; n < base || n > total {
						errc <- fmt.Errorf("reader %d: count %v outside [%d, %d]", r, n, base, total)
						return
					}
				case 2:
					res, err := db.Exact(`SELECT COUNT(*) AS n FROM ev GROUP BY tag`)
					if err != nil {
						errc <- fmt.Errorf("reader %d exact group by: %w", r, err)
						return
					}
					if err := checkTagGroups(res, baseTags, allTags, base, total); err != nil {
						errc <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
				default:
					// Catalog scans race the writers' maintenance updates.
					for _, info := range db.Tables() {
						if info.Name == "ev" && (info.Rows < base || info.Rows > total) {
							errc <- fmt.Errorf("reader %d: Tables rows %d outside [%d, %d]", r, info.Rows, base, total)
							return
						}
					}
					for _, sy := range db.Synopses() {
						if sy.Rows > sy.SourceRows {
							errc <- fmt.Errorf("reader %d: synopsis %s has %d rows from %d source rows", r, sy.Name, sy.Rows, sy.SourceRows)
							return
						}
					}
				}
			}
		}(r)
	}

	wwg.Wait()
	close(writersDone)
	rwg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced state: every insert landed, and the incrementally
	// maintained synopsis agrees with a from-scratch rebuild.
	const total = base + writers*perWriter
	res, err := db.Exact(`SELECT COUNT(*) AS n FROM ev`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Values[0].Value; n != total {
		t.Fatalf("final count %v, want %d", n, total)
	}
	if err := tagGroupsAfter(db, allTags, total); err != nil {
		t.Fatal(err)
	}
	var maintained SynopsisInfo
	for _, sy := range db.Synopses() {
		if sy.Name == "ev_syn" {
			maintained = sy
		}
	}
	if maintained.Name == "" || maintained.Stale {
		t.Fatalf("synopsis not maintained through concurrent appends: %+v", maintained)
	}
	if maintained.SourceRows != total {
		t.Fatalf("synopsis built over %d rows, want %d", maintained.SourceRows, total)
	}
	if err := db.RefreshSynopsis("ev_syn"); err != nil {
		t.Fatal(err)
	}
	var rebuilt SynopsisInfo
	for _, sy := range db.Synopses() {
		if sy.Name == "ev_syn" {
			rebuilt = sy
		}
	}
	if rebuilt.Rows != maintained.Rows {
		t.Fatalf("incremental maintenance drifted: maintained %d rows, rebuild %d", maintained.Rows, rebuilt.Rows)
	}

	// The tail survives a round-trip: re-save, reopen, recount.
	dir2 := t.TempDir()
	if err := db.Save(dir2); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res2, err := db2.Exact(`SELECT COUNT(*) AS n FROM ev`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res2.Values[0].Value; n != total {
		t.Fatalf("reopened count %v, want %d", n, total)
	}
	if err := tagGroupsAfter(db2, allTags, total); err != nil {
		t.Fatalf("reopened: %v", err)
	}
}

// checkTagGroups checks an exact COUNT(*) GROUP BY tag: between minGroups
// and maxGroups groups, each a seeded or a written tag, whose counts sum to
// a row count in [minRows, maxRows].
func checkTagGroups(res *Result, minGroups, maxGroups, minRows, maxRows int) error {
	if g := len(res.Groups); g < minGroups || g > maxGroups {
		return fmt.Errorf("%d tag groups outside [%d, %d]", g, minGroups, maxGroups)
	}
	var n float64
	for _, g := range res.Groups {
		if !strings.HasPrefix(g.Key, "s") && !strings.HasPrefix(g.Key, "w") {
			return fmt.Errorf("unknown tag group %q", g.Key)
		}
		n += g.Values[0].Value
	}
	if n < float64(minRows) || n > float64(maxRows) {
		return fmt.Errorf("tag groups hold %v rows, outside [%d, %d]", n, minRows, maxRows)
	}
	return nil
}

// tagGroupsAfter checks the quiesced table has every tag and every row.
func tagGroupsAfter(db *DB, tags, rows int) error {
	res, err := db.Exact(`SELECT COUNT(*) AS n FROM ev GROUP BY tag`)
	if err != nil {
		return err
	}
	return checkTagGroups(res, tags, tags, rows, rows)
}

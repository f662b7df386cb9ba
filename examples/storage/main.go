// Persistent storage end to end: save a database as mmap-ready segment
// files, reopen it without re-parsing anything, attach segments through
// SQL, append to a segment-backed table (the file stays untouched), and
// watch zone maps skip partitions a WHERE clause provably rejects —
// with results bit-identical to the unskipped scan.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	gus "github.com/sampling-algebra/gus"
)

func main() {
	dir, err := os.MkdirTemp("", "gus-storage-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Build a database and persist it: one <table>.gusseg per table,
	// written via .tmp + fsync + atomic rename.
	src := gus.Open()
	if err := src.AttachTPCH(0.01, 42); err != nil { // ~15k orders
		log.Fatal(err)
	}
	if err := src.Save(dir); err != nil {
		log.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		info, _ := e.Info()
		fmt.Printf("saved %-18s %9d bytes\n", e.Name(), info.Size())
	}

	// 2. Cold open: OpenDir mmaps each segment and aliases column vectors
	// straight into the mapping — no parsing, no copying.
	db, err := gus.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	for _, t := range db.Tables() {
		fmt.Printf("opened %-10s %7d rows, storage=%s\n", t.Name, t.Rows, t.Storage)
	}

	// 3. Zone-map skipping: l_orderkey ascends with row order, so a range
	// predicate lets the footer's per-partition min/max stats prove most
	// partitions empty. The trace shows how many the engine never touched.
	sql := `SELECT SUM(l_quantity) AS q
		FROM lineitem TABLESAMPLE (50 PERCENT)
		WHERE l_orderkey < 500`
	tr := &gus.Trace{}
	res, err := db.Query(sql, gus.WithSeed(7), gus.WithTrace(tr))
	if err != nil {
		log.Fatal(err)
	}
	parts, skipped := 0, 0
	for _, s := range tr.Spans {
		if s.Partitions > parts {
			parts = s.Partitions
		}
		skipped += s.Skipped
	}
	fmt.Printf("\nq ≈ %.1f ± %.1f   (skipped %d of %d partitions)\n",
		res.Values[0].Estimate, res.Values[0].StdErr, skipped, parts)

	// Skipping never changes results: each partition samples from its own
	// sub-seeded RNG, so pruning an all-false partition cannot perturb any
	// other partition's draw. Verify against the unskipped scan.
	noskip, err := db.Query(sql, gus.WithSeed(7), gus.WithZoneSkipping(false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bit-identical without skipping: %v\n",
		res.Values[0].Estimate == noskip.Values[0].Estimate)

	// 4. ATTACH SEGMENT through SQL — same machinery, one statement.
	db2 := gus.Open()
	if _, err := db2.Query(fmt.Sprintf("ATTACH SEGMENT '%s'",
		filepath.Join(dir, "lineitem.gusseg"))); err != nil {
		log.Fatal(err)
	}
	n, _ := db2.TableLen("lineitem")
	fmt.Printf("\nATTACH SEGMENT: lineitem with %d rows\n", n)

	// 5. Appends copy the mapped columns to the heap once and never
	// modify the file. Re-Save to persist the grown table.
	li, err := db.Table("lineitem")
	if err != nil {
		log.Fatal(err)
	}
	before := li.Len()
	if err := li.Insert(999999, 1, 1, 42.0, 1000.0, 0.05, 0.08); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(filepath.Join(dir, "lineitem.gusseg"))
	fmt.Printf("appended: %d -> %d rows in memory; %s on disk unchanged (%d bytes)\n",
		before, li.Len(), "lineitem.gusseg", st.Size())
}

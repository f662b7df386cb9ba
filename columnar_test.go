package gus

// Tests for the engine as seen through the public API: every query must
// reproduce the frozen results of the row-at-a-time engine it replaced,
// GROUP BY keys must order numerically, and QUANTILE answers must follow
// the query's interval method.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/sampling-algebra/gus/internal/stats"
)

// resultDigest is a SHA-256 over a canonical rendering of a result:
// SampleRows, then per group its key and per value its name, kind and the
// IEEE-754 bit patterns of Value, Estimate, StdErr, CILow, CIHigh and every
// ŷ_S moment.
func resultDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "rows %d\n", r.SampleRows)
	values := func(vs []Value) {
		for _, v := range vs {
			fmt.Fprintf(h, "%s %s", v.Name, v.Kind)
			for _, f := range append([]float64{v.Value, v.Estimate, v.StdErr, v.CILow, v.CIHigh}, v.yhat...) {
				fmt.Fprintf(h, " %016x", math.Float64bits(f))
			}
			fmt.Fprintln(h)
		}
	}
	values(r.Values)
	for _, g := range r.Groups {
		fmt.Fprintf(h, "group %q\n", g.Key)
		values(g.Values)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireFrozen asserts r renders to the digest recorded under key in
// frozenRowEngine.
func requireFrozen(t *testing.T, key string, r *Result) {
	t.Helper()
	if d := resultDigest(r); d != frozenRowEngine[key] {
		t.Errorf("%q: digest %s, frozen %s", key, d, frozenRowEngine[key])
	}
}

// TestColumnarMatches asserts the engine + batch-fed estimator reproduce,
// float for float across the query suite, seeds and worker counts, the
// verdict of the parallel row-at-a-time engine that used to be the sampled
// bit-oracle. That engine is gone; its results are frozen in
// frozenRowEngine. plan.Execute cannot stand in — it draws from one
// sequential stream, so it matches the engine only on sampling-free plans.
// A live sampled oracle returns when ROADMAP's counter-based draws make
// plan.Execute able to replay the engine's decisions.
func TestColumnarMatches(t *testing.T) {
	db := testDB(t, 2500)
	queries := []string{
		paperQuery1,
		`SELECT SUM(l_discount*(1.0-l_tax)) AS rev, COUNT(*) AS n
		 FROM lineitem TABLESAMPLE (15 PERCENT)
		 WHERE l_extendedprice > 100.0 AND l_quantity < 45.0`,
		`SELECT AVG(l_extendedprice) AS m FROM lineitem TABLESAMPLE (20 PERCENT)`,
		`SELECT QUANTILE(SUM(l_quantity), 0.9) FROM lineitem TABLESAMPLE (30 PERCENT) REPEATABLE (9)`,
		`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE SYSTEM (25)`,
		`SELECT SUM(o_totalprice) FROM orders TABLESAMPLE (500 ROWS)`,
	}
	for qi, sql := range queries {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, w := range []int{1, 2, 4, 8} {
				got, err := db.Query(sql, WithSeed(seed), WithWorkers(w))
				if err != nil {
					t.Fatalf("query %d seed %d workers %d: %v", qi, seed, w, err)
				}
				requireFrozen(t, fmt.Sprintf("query %d seed %d", qi, seed), got)
			}
		}
	}
}

// TestColumnarMatchesAnalyses covers GROUP BY, Exact, Robustness and §7
// variance sub-sampling against the same frozen verdict.
func TestColumnarMatchesAnalyses(t *testing.T) {
	db := testDB(t, 1500)
	groupSQL := `SELECT SUM(l_extendedprice) AS s, AVG(l_quantity) AS a
	             FROM lineitem TABLESAMPLE (25 PERCENT) GROUP BY l_linenumber`
	joinSQL := `SELECT SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey`
	subSQL := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	for _, w := range []int{1, 2, 4, 8} {
		cells := []struct {
			key string
			run func() (*Result, error)
		}{
			{"group by", func() (*Result, error) { return db.Query(groupSQL, WithSeed(3), WithWorkers(w)) }},
			{"exact", func() (*Result, error) { return db.Exact(joinSQL, WithWorkers(w)) }},
			{"robustness", func() (*Result, error) { return db.Robustness(joinSQL, 0.95, WithWorkers(w)) }},
			{"subsample", func() (*Result, error) {
				return db.Query(subSQL, WithSeed(2), WithWorkers(w), WithVarianceSubsampling(300))
			}},
		}
		for _, c := range cells {
			got, err := c.run()
			if err != nil {
				t.Fatalf("%s workers %d: %v", c.key, w, err)
			}
			requireFrozen(t, c.key, got)
		}
	}
}

// TestGroupByNumericOrder is the regression for the GROUP BY ordering
// bug: integer keys used to sort lexicographically ("1", "10", "2", …).
func TestGroupByNumericOrder(t *testing.T) {
	db := Open()
	tb, err := db.CreateTable("ev", Column{"cat", Int}, Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2400; i++ {
		if err := tb.Insert(i%12, float64(i%7)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT SUM(v) FROM ev TABLESAMPLE (50 PERCENT) GROUP BY cat`, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 12 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	for i, g := range res.Groups {
		if want := fmt.Sprint(i); g.Key != want {
			t.Fatalf("group %d has key %q, want %q (numeric order)", i, g.Key, want)
		}
	}

	// Float keys order numerically too.
	fb, err := db.CreateTable("fv", Column{"k", Float}, Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := fb.Insert([]any{2.5, 10.0, 0.5}[i%3], 1.0); err != nil {
			t.Fatal(err)
		}
	}
	fres, err := db.Exact(`SELECT COUNT(*) FROM fv GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"0.5", "2.5", "10"}
	for i, g := range fres.Groups {
		if g.Key != wantKeys[i] {
			t.Fatalf("float group %d key %q, want %q", i, g.Key, wantKeys[i])
		}
	}

	// String keys keep lexicographic order.
	sb, err := db.CreateTable("sv", Column{"k", String}, Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pear", "apple", "fig", "apple"} {
		if err := sb.Insert(k, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	sres, err := db.Exact(`SELECT COUNT(*) FROM sv GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	wantS := []string{"apple", "fig", "pear"}
	for i, g := range sres.Groups {
		if g.Key != wantS[i] {
			t.Fatalf("string group %d key %q, want %q", i, g.Key, wantS[i])
		}
	}
}

// TestQuantileIntervalConsistency: under WithInterval(ChebyshevInterval),
// QUANTILE answers must use the distribution-free quantile — wider than
// the normal approximation on both tails, for SUM and AVG alike.
func TestQuantileIntervalConsistency(t *testing.T) {
	db := testDB(t, 2000)
	sql := `SELECT QUANTILE(SUM(l_extendedprice), 0.95) AS hi,
	               QUANTILE(SUM(l_extendedprice), 0.05) AS lo,
	               QUANTILE(AVG(l_extendedprice), 0.95) AS ahi
	        FROM lineitem TABLESAMPLE (20 PERCENT)`
	normal, err := db.Query(sql, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	cheb, err := db.Query(sql, WithSeed(4), WithInterval(ChebyshevInterval))
	if err != nil {
		t.Fatal(err)
	}
	// Same sample either way.
	for i := range normal.Values {
		if normal.Values[i].Estimate != cheb.Values[i].Estimate {
			t.Fatalf("interval choice changed the estimate itself")
		}
	}
	if !(cheb.Values[0].Value > normal.Values[0].Value) {
		t.Errorf("Chebyshev 0.95 SUM quantile %v not above normal %v",
			cheb.Values[0].Value, normal.Values[0].Value)
	}
	if !(cheb.Values[1].Value < normal.Values[1].Value) {
		t.Errorf("Chebyshev 0.05 SUM quantile %v not below normal %v",
			cheb.Values[1].Value, normal.Values[1].Value)
	}
	if !(cheb.Values[2].Value > normal.Values[2].Value) {
		t.Errorf("Chebyshev 0.95 AVG quantile %v not above normal %v",
			cheb.Values[2].Value, normal.Values[2].Value)
	}
	// The 0.95 quantile stays inside the 95% two-sided Chebyshev interval
	// (k=4.47 two-sided vs 4.36 one-sided).
	if cheb.Values[0].Value >= cheb.Values[0].CIHigh {
		t.Errorf("Cantelli 0.95 quantile %v outside the Chebyshev CI bound %v",
			cheb.Values[0].Value, cheb.Values[0].CIHigh)
	}
}

// TestLoadCSVDuplicateCheckedFirst: a duplicate table name must be
// rejected before the CSV file is even opened (CreateTable's error
// ordering), and a successful load must still reject a second load.
func TestLoadCSVDuplicateCheckedFirst(t *testing.T) {
	db := Open()
	if _, err := db.CreateTable("dup", Column{"v", Float}); err != nil {
		t.Fatal(err)
	}
	// The path does not exist: with the old load-then-check ordering this
	// returned a file error, not the duplicate error.
	err := db.LoadCSV("dup", filepath.Join(t.TempDir(), "definitely-missing.csv"))
	if err == nil {
		t.Fatal("duplicate LoadCSV accepted")
	}
	if want := `gus: table "dup" already exists`; err.Error() != want {
		t.Fatalf("duplicate check ran after parsing: got %q, want %q", err.Error(), want)
	}

	// Round-trip a real table, then load it twice.
	tb, err := db.CreateTable("roundtrip", Column{"k", Int}, Column{"v", Float})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	for i := 0; i < 50; i++ {
		if err := tb.Insert(i, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "roundtrip.csv")
	if err := db.SaveCSV("roundtrip", path); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("copy", path); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.TableLen("copy"); n != 50 {
		t.Fatalf("loaded %d rows", n)
	}
	if err := db.LoadCSV("copy", path); err == nil {
		t.Fatal("second load of the same name accepted")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

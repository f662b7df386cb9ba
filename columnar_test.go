package gus

// Tests for the engine as seen through the public API: every query must
// reproduce the serial reference executor's answer, GROUP BY keys must
// order numerically, and QUANTILE answers must follow the query's interval
// method.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/online"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/stats"
)

// reference answers sql under o the way the query executor does — the
// same resolve and bind stages, so the same bound plan — but samples with
// the serial plan.Execute and estimates every item from its rows with the
// row-form estimator: a live oracle for the engine, the batch-fed
// estimator and grouping together.
func reference(t *testing.T, db *DB, sql string, o queryOptions) *Result {
	t.Helper()
	st, err := db.resolve(stmtRef{sql: sql}, &o)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	b, err := db.bind(st, &o)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(b.Root, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	g := b.analysis.G
	eopts := estimator.Options{MaxVarianceRows: o.maxVarianceRows, Seed: o.seed + 0x5b0c}
	values := func(rows *ops.Rows) []Value {
		var vs []Value
		for _, it := range b.items {
			var est, sd float64
			var yhat []float64
			if it.Ratio {
				r, err := estimator.Ratio(g, rows, it.F, it.Den, eopts)
				if err != nil {
					t.Fatal(err)
				}
				est, sd = r.Estimate, r.StdDev()
			} else {
				r, err := estimator.Estimate(g, rows, it.F, eopts)
				if err != nil {
					t.Fatal(err)
				}
				est, sd, yhat = r.Estimate, r.StdDev(), r.YHat
			}
			vu := online.Price(it, est, sd, o.level, o.ciMethod())
			vs = append(vs, Value{
				Name: vu.Name, Kind: vu.Kind, Value: vu.Value, Estimate: vu.Estimate, StdErr: vu.StdErr,
				CILow: vu.CILow, CIHigh: vu.CIHigh, Approximate: vu.Approximate, yhat: yhat,
			})
		}
		return vs
	}
	res := &Result{SampleRows: rows.Len()}
	if b.GroupBy == "" {
		res.Values = values(rows)
		return res
	}
	idx, ok := rows.Cols.Index(b.GroupBy)
	if !ok {
		t.Fatalf("no GROUP BY column %q", b.GroupBy)
	}
	groups := map[string]*ops.Rows{}
	var keys []relation.Value
	for _, r := range rows.Data {
		k := r.Vals[idx].AsString()
		if groups[k] == nil {
			groups[k] = &ops.Rows{Cols: rows.Cols, LSch: rows.LSch}
			keys = append(keys, r.Vals[idx])
		}
		groups[k].Data = append(groups[k].Data, r)
	}
	sort.Slice(keys, func(i, j int) bool { c, _ := keys[i].Compare(keys[j]); return c < 0 })
	for _, k := range keys {
		res.Groups = append(res.Groups, Group{Key: k.AsString(), Values: values(groups[k.AsString()])})
	}
	return res
}

// TestColumnarMatches asserts the engine + batch-fed estimator reproduce,
// float for float across the query suite, seeds and worker counts, the
// reference answer: plan.Execute over the same bound plan, estimated with
// the row-form estimator.
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
			want := reference(t, db, sql, db.buildOptions([]Option{WithSeed(seed)}))
			for _, w := range []int{1, 2, 4, 8} {
				got, err := db.Query(sql, WithSeed(seed), WithWorkers(w))
				if err != nil {
					t.Fatalf("query %d seed %d workers %d: %v", qi, seed, w, err)
				}
				sameValues(t, fmt.Sprintf("query %d seed %d workers %d", qi, seed, w), got, want)
			}
		}
	}
}

// TestColumnarMatchesAnalyses covers GROUP BY, Exact, Robustness and §7
// variance sub-sampling against the same reference.
func TestColumnarMatchesAnalyses(t *testing.T) {
	db := testDB(t, 1500)
	groupSQL := `SELECT SUM(l_extendedprice) AS s, AVG(l_quantity) AS a
	             FROM lineitem TABLESAMPLE (25 PERCENT) GROUP BY l_linenumber`
	joinSQL := `SELECT SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey`
	subSQL := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	cells := []struct {
		key      string
		sql      string
		opts     []Option
		exact    bool
		survival float64
	}{
		{"group by", groupSQL, []Option{WithSeed(3)}, false, 0},
		{"exact", joinSQL, nil, true, 0},
		{"robustness", joinSQL, nil, false, 0.95},
		{"subsample", subSQL, []Option{WithSeed(2), WithVarianceSubsampling(300)}, false, 0},
	}
	for _, c := range cells {
		o := db.buildOptions(c.opts)
		o.exact, o.survival = c.exact, c.survival
		want := reference(t, db, c.sql, o)
		for _, w := range []int{1, 2, 4, 8} {
			opts := append(append([]Option{}, c.opts...), WithWorkers(w))
			var got *Result
			var err error
			switch {
			case c.exact:
				got, err = db.Exact(c.sql, opts...)
			case c.survival > 0:
				got, err = db.Robustness(c.sql, c.survival, opts...)
			default:
				got, err = db.Query(c.sql, opts...)
			}
			if err != nil {
				t.Fatalf("%s workers %d: %v", c.key, w, err)
			}
			sameValues(t, fmt.Sprintf("%s workers %d", c.key, w), got, want)
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

package gus

// Tests for QueryProgressive: online aggregation must converge to exactly
// the one-shot answer (bit-identical at any worker count), stop early when
// asked to, and die promptly when its context does.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/sampling-algebra/gus/internal/tpch"
)

func progressiveDB(t *testing.T, orders int) *DB {
	t.Helper()
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: orders, Customers: orders/10 + 10, Parts: orders/40 + 10, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	return db
}

// drain collects every update of a stream and the terminal error.
func drain(ch <-chan Update, wait func() error) ([]Update, error) {
	var ups []Update
	for u := range ch {
		ups = append(ups, u)
	}
	return ups, wait()
}

func requireSameUpdateValue(t *testing.T, label string, u UpdateValue, v Value) {
	t.Helper()
	if u.Name != v.Name || u.Kind != v.Kind {
		t.Fatalf("%s: identity %q/%q vs %q/%q", label, u.Name, u.Kind, v.Name, v.Kind)
	}
	checks := []struct {
		what string
		x, y float64
	}{
		{"Value", u.Value, v.Value},
		{"Estimate", u.Estimate, v.Estimate},
		{"StdErr", u.StdErr, v.StdErr},
		{"CILow", u.CILow, v.CILow},
		{"CIHigh", u.CIHigh, v.CIHigh},
	}
	for _, c := range checks {
		if c.x != c.y {
			t.Fatalf("%s: %s: progressive %.17g vs one-shot %.17g", label, c.what, c.x, c.y)
		}
	}
	if u.Approximate != v.Approximate {
		t.Fatalf("%s: Approximate %v vs %v", label, u.Approximate, v.Approximate)
	}
}

// TestProgressiveFinalBitIdentical is the core acceptance contract: for
// any (query, seed, workers), running the stream to completion yields
// estimates, standard errors and intervals bit-identical to Query.
func TestProgressiveFinalBitIdentical(t *testing.T) {
	db := progressiveDB(t, 4000)
	queries := map[string]string{
		"sum-bernoulli": `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS rev
			FROM lineitem TABLESAMPLE (30 PERCENT) WHERE l_extendedprice > 500.0`,
		"count-system": `SELECT COUNT(*) FROM lineitem TABLESAMPLE SYSTEM (20)`,
		"avg":          `SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`,
		"quantiles": `SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05) AS lo,
			QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) AS hi
			FROM lineitem TABLESAMPLE (40 PERCENT)`,
		"unsampled-filter": `SELECT SUM(l_tax) FROM lineitem WHERE l_discount > 0.02`,
	}
	for name, sql := range queries {
		for _, seed := range []uint64{1, 9} {
			for _, workers := range []int{1, 4} {
				opts := []Option{WithSeed(seed), WithWorkers(workers), WithWaveRows(1000)}
				want, err := db.Query(sql, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ch, wait := db.QueryProgressive(context.Background(), sql, opts...)
				ups, err := drain(ch, wait)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(ups) < 2 {
					t.Fatalf("%s: only %d updates; waves did not engage", name, len(ups))
				}
				last := ups[len(ups)-1]
				if !last.Final || !last.Done || last.Reason != "complete" {
					t.Fatalf("%s: last update not a completed scan: %+v", name, last)
				}
				if last.FractionScanned != 1 {
					t.Fatalf("%s: final fraction %v", name, last.FractionScanned)
				}
				if len(last.Values) != len(want.Values) {
					t.Fatalf("%s: %d values vs %d", name, len(last.Values), len(want.Values))
				}
				for i := range want.Values {
					requireSameUpdateValue(t, name, last.Values[i], want.Values[i])
				}
				if last.SampleRows != want.SampleRows {
					t.Fatalf("%s: sample rows %d vs %d", name, last.SampleRows, want.SampleRows)
				}
				// Fractions must be strictly increasing and CIs well-formed.
				for i, u := range ups {
					if i > 0 && u.FractionScanned <= ups[i-1].FractionScanned {
						t.Fatalf("%s: fraction not increasing at wave %d", name, i)
					}
					for _, v := range u.Values {
						if !math.IsNaN(v.CILow) && v.CILow > v.CIHigh {
							t.Fatalf("%s: inverted CI at wave %d", name, i)
						}
					}
				}
			}
		}
	}
}

// TestProgressiveJoinFallback: shapes the wave executor cannot split still
// answer — as a single Final update identical to Query.
func TestProgressiveJoinFallback(t *testing.T) {
	db := progressiveDB(t, 1500)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (20 PERCENT),
		orders TABLESAMPLE (400 ROWS) WHERE l_orderkey = o_orderkey`
	want, err := db.Query(sql, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(3))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("expected a single fallback update, got %d", len(ups))
	}
	u := ups[0]
	if !u.Final || !u.Done || u.FractionScanned != 1 {
		t.Fatalf("fallback update not final: %+v", u)
	}
	requireSameUpdateValue(t, "join-fallback", u.Values[0], want.Values[0])
}

// TestProgressiveTargetCI: with a 1% relative-CI target on a TPC-H Q1
// revenue aggregate, the stream must stop after a strict subset of the
// data while actually delivering the target accuracy.
func TestProgressiveTargetCI(t *testing.T) {
	db := progressiveDB(t, 30000)
	sql := `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue
		FROM lineitem TABLESAMPLE (90 PERCENT) WHERE l_quantity < 45.0`
	ch, wait := db.QueryProgressive(context.Background(), sql,
		WithSeed(7), WithTargetRelativeCI(0.01), WithWaveRows(8192))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	last := ups[len(ups)-1]
	if last.Reason != "target-ci" || !last.Done {
		t.Fatalf("stream did not stop on target: %+v", last)
	}
	if last.FractionScanned >= 1 {
		t.Fatalf("no early stop: scanned fraction %v", last.FractionScanned)
	}
	v := last.Values[0]
	half := (v.CIHigh - v.CILow) / 2
	if half > 0.01*math.Abs(v.Estimate) {
		t.Fatalf("half-width %v exceeds 1%% of estimate %v", half, v.Estimate)
	}
	// The early answer must be close to the truth (fixed seed: this is a
	// deterministic regression, not a flaky statistical assertion).
	exact, err := db.Exact(sql)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Values[0].Value
	if rel := math.Abs(v.Estimate-truth) / truth; rel > 0.02 {
		t.Fatalf("early estimate off by %.2f%% (est %v, truth %v)", 100*rel, v.Estimate, truth)
	}
}

// TestProgressiveMaxFraction: the scan must stop at the I/O budget.
func TestProgressiveMaxFraction(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql,
		WithSeed(1), WithMaxFraction(0.3), WithWaveRows(2048))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	last := ups[len(ups)-1]
	if last.Reason != "max-fraction" {
		t.Fatalf("reason %q", last.Reason)
	}
	if last.FractionScanned < 0.3 || last.FractionScanned >= 1 {
		t.Fatalf("fraction %v outside [0.3, 1)", last.FractionScanned)
	}
}

// TestProgressiveDeadline: an already-expired deadline stops the stream at
// the first wave boundary.
func TestProgressiveDeadline(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql,
		WithSeed(1), WithDeadline(time.Nanosecond), WithWaveRows(2048))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("expected exactly one update, got %d", len(ups))
	}
	if ups[0].Reason != "deadline" {
		t.Fatalf("reason %q", ups[0].Reason)
	}
}

// TestProgressiveCancel: canceling the context ends the stream within a
// wave and surfaces the cancellation through wait.
func TestProgressiveCancel(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, wait := db.QueryProgressive(ctx, sql, WithSeed(1), WithWaveRows(1024))
	var got int
	for u := range ch {
		got++
		if got == 1 {
			cancel()
		}
		_ = u
	}
	err := wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("wait() = %v, want context.Canceled", err)
	}
	if got > 3 {
		t.Fatalf("stream kept flowing after cancel: %d updates", got)
	}
}

// TestProgressiveGroupByUnsupported: GROUP BY streams fail fast with a
// clear error instead of silently degrading.
func TestProgressiveGroupByUnsupported(t *testing.T) {
	db := progressiveDB(t, 1500)
	ch, wait := db.QueryProgressive(context.Background(),
		`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT) GROUP BY l_linenumber`)
	ups, err := drain(ch, wait)
	if err == nil || len(ups) != 0 {
		t.Fatalf("expected GROUP BY rejection, got %d updates, err %v", len(ups), err)
	}
}

// TestQueryContextCancel: a one-shot query honors its context between
// partition waves.
func TestQueryContextCancel(t *testing.T) {
	db := progressiveDB(t, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx,
		`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = %v, want context.Canceled", err)
	}
}

// TestProgressiveAbandonThenWait: breaking out of the channel early and
// calling wait stops the scan cleanly (nil error) and leaves the DB fully
// usable — the regression for the abandoned-stream deadlock.
func TestProgressiveAbandonThenWait(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(1), WithWaveRows(1024))
	<-ch // take one update, then abandon the channel without draining
	if err := wait(); err != nil {
		t.Fatalf("wait after abandoning the channel: %v", err)
	}
	tb, err := db.CreateTable("probe", Column{Name: "v", Type: Float})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT SUM(v) FROM probe`); err != nil {
		t.Fatal(err)
	}
}

// TestProgressiveStreamDoesNotBlockWriters: a live stream holds no
// catalog lock, so writes proceed mid-stream (and the stream keeps
// answering from its snapshot).
func TestProgressiveStreamDoesNotBlockWriters(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(1), WithWaveRows(1024))
	if _, ok := <-ch; !ok {
		t.Fatal("stream ended before first update")
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := db.CreateTable("w", Column{Name: "v", Type: Float})
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("catalog write blocked behind a live progressive stream")
	}
	if _, err := drain(ch, wait); err != nil {
		t.Fatal(err)
	}
}

// TestProgressiveConcurrentStreamsMatchQuery runs streams on 8 goroutines
// at once, each with its own seed, SUM, AVG and COUNT items, and a stream
// stopped early between two complete ones. Waves recycle their batches,
// the accumulators' spans and the value buffers through shared pools, so
// a buffer handed to two streams — or read by one item's accumulator
// after another reused it — would move a bit: every completed stream's
// final update must equal its one-shot Query exactly.
func TestProgressiveConcurrentStreamsMatchQuery(t *testing.T) {
	db := progressiveDB(t, 4000)
	const sql = `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS rev, AVG(l_discount) AS d, COUNT(*) AS n
		FROM lineitem TABLESAMPLE (40 PERCENT) WHERE l_quantity < 40.0`
	const streams, rounds = 8, 2
	type outcome struct {
		want *Result
		last Update
		err  error
	}
	out := make([][rounds]outcome, streams)
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				o := &out[g][r]
				opts := []Option{WithSeed(uint64(100 + 10*g + r)), WithWorkers(2), WithWaveRows(1000)}
				if o.want, o.err = db.Query(sql, opts...); o.err != nil {
					return
				}
				ups, err := drain(db.QueryProgressive(context.Background(), sql, opts...))
				if err != nil || len(ups) == 0 {
					o.err = fmt.Errorf("stream: %v (%d updates)", err, len(ups))
					return
				}
				o.last = ups[len(ups)-1]
				// An early stop between complete streams hands its spans
				// back through Release rather than Finalize.
				early := append([]Option{WithMaxFraction(0.3)}, opts...)
				if _, err := drain(db.QueryProgressive(context.Background(), sql, early...)); err != nil {
					o.err = fmt.Errorf("early stream: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range out {
		for r, o := range out[g] {
			label := fmt.Sprintf("goroutine %d round %d", g, r)
			if o.err != nil {
				t.Fatalf("%s: %v", label, o.err)
			}
			if !o.last.Final || len(o.last.Values) != len(o.want.Values) || o.last.SampleRows != o.want.SampleRows {
				t.Fatalf("%s: final update %+v does not match the one-shot shape", label, o.last)
			}
			for i := range o.want.Values {
				requireSameUpdateValue(t, label, o.last.Values[i], o.want.Values[i])
			}
		}
	}
}

// TestProgressiveFinalGradeMatchesQuery: a completed stream grades its
// interval exactly as traced Query does. The full-mask group statistics
// behind VarianceRSE come from one definition, span-wise group totals, so
// a SYSTEM block straddling a partition boundary totals the same on both
// paths; and AVG is graded through the same ratio rule on both, over its
// numerator and denominator statistics with the ratio's own clamp
// (AVG of a constant has a near-zero, often negative, raw variance).
func TestProgressiveFinalGradeMatchesQuery(t *testing.T) {
	db := progressiveDB(t, 4000)
	cases := []struct {
		name, sql string
		opts      []Option
	}{
		{"sum-bernoulli", `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (25 PERCENT)`, nil},
		{"avg-bernoulli", `SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE (25 PERCENT)`, nil},
		{"sum-system", `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE SYSTEM (50)`, []Option{WithSystemBlockSize(300)}},
		{"avg-system", `SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE SYSTEM (50)`, []Option{WithSystemBlockSize(300)}},
		{"avg-constant", `SELECT AVG(0.1) FROM lineitem TABLESAMPLE (25 PERCENT)`, nil},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 30; seed++ {
			label := fmt.Sprintf("%s seed %d", c.name, seed)
			opts := append([]Option{WithSeed(seed), WithWaveRows(1000)}, c.opts...)
			want, err := db.Query(c.sql, append([]Option{WithTrace(&Trace{})}, opts...)...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ups, err := drain(db.QueryProgressive(context.Background(), c.sql, opts...))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			last := ups[len(ups)-1]
			if !last.Final || len(last.Values) != 1 || len(want.Values) != 1 {
				t.Fatalf("%s: final update %+v, one-shot %d values", label, last, len(want.Values))
			}
			u, v := last.Values[0], want.Values[0]
			if math.Float64bits(u.Estimate) != math.Float64bits(v.Estimate) || math.Float64bits(u.StdErr) != math.Float64bits(v.StdErr) {
				t.Fatalf("%s: estimate/stderr %.17g/%.17g vs one-shot %.17g/%.17g", label, u.Estimate, u.StdErr, v.Estimate, v.StdErr)
			}
			if v.Reliability == "" {
				t.Fatalf("%s: traced Query reported no grade", label)
			}
			if u.Reliability != v.Reliability || math.Float64bits(u.VarianceRSE) != math.Float64bits(v.VarianceRSE) {
				t.Fatalf("%s: grade %s rse(V) %.17g vs one-shot %s %.17g", label, u.Reliability, u.VarianceRSE, v.Reliability, v.VarianceRSE)
			}
		}
	}
}

package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/sampling"
)

// wavePlans enumerates the single-scan shapes wave execution supports.
func wavePlans(t *testing.T) map[string]plan.Node {
	tables := genTables(t, 2000)
	bern, _ := sampling.NewBernoulli("lineitem", 0.3)
	blk, _ := sampling.NewBlock("lineitem", 16, 0.4)
	lh, _ := sampling.NewLineageHash(99, map[string]float64{"lineitem": 0.5})
	sel := func(in plan.Node) plan.Node {
		return &plan.Select{Input: in, Pred: expr.Gt(expr.Col("l_extendedprice"), expr.Float(500))}
	}
	return map[string]plan.Node{
		"scan": &plan.Scan{Rel: tables.Lineitem},
		"gus-scan": &plan.GUS{
			Input: &plan.Scan{Rel: tables.Lineitem},
		},
		"select": sel(&plan.Scan{Rel: tables.Lineitem}),
		"bernoulli-select": sel(&plan.Sample{
			Input: &plan.Scan{Rel: tables.Lineitem}, Method: bern,
		}),
		"block": &plan.Sample{Input: &plan.Scan{Rel: tables.Lineitem}, Method: blk},
		"lineage-hash-project": &plan.Project{
			Input: &plan.Sample{Input: &plan.Scan{Rel: tables.Lineitem}, Method: lh},
			Names: []string{"v"},
			Exprs: []expr.Expr{expr.Mul(expr.Col("l_extendedprice"), expr.Col("l_discount"))},
		},
	}
}

// TestWaveConcatBitIdentical: concatenating ExecuteWave outputs over any
// cover of the partitions reproduces ExecuteBatch exactly — rows, order,
// lineage — for every supported shape, seed and wave size.
func TestWaveConcatBitIdentical(t *testing.T) {
	plans := wavePlans(t)
	for name, root := range plans {
		for _, seed := range []uint64{1, 7} {
			e := New(Config{Workers: 3, PartitionSize: 128, SerialCutoff: 1})
			want, err := e.ExecuteBatch(root, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, waveParts := range []int{1, 3, 5} {
				sameRows(t, fmt.Sprintf("%s seed=%d wave=%d", name, seed, waveParts),
					want.ToRows(), waveRows(t, e, root, seed, waveParts))
			}
		}
	}
}

// waveRows runs root wave by wave, waveParts partitions at a time, and
// concatenates the waves' rows.
func waveRows(t *testing.T, e *Engine, root plan.Node, seed uint64, waveParts int) *ops.Rows {
	t.Helper()
	w, err := e.PrepareWaves(root, seed)
	if err != nil {
		t.Fatalf("PrepareWaves: %v", err)
	}
	if w == nil {
		t.Fatal("PrepareWaves declined a supported shape")
	}
	schema, err := w.OutSchema()
	if err != nil {
		t.Fatal(err)
	}
	got := &ops.Rows{Cols: schema, LSch: w.st.in.LSch}
	for lo := 0; lo < w.Partitions(); lo += waveParts {
		b, err := w.ExecuteWave(lo, min(lo+waveParts, w.Partitions()))
		if err != nil {
			t.Fatalf("wave [%d,%d): %v", lo, lo+waveParts, err)
		}
		got.Data = append(got.Data, b.ToRows().Data...)
	}
	return got
}

// TestWaveExecsInterleaved: two WaveExecs over the same plan, driven in
// alternation, each recycle their previous wave's batch through the shared
// pools. A wave's batch stays valid until the next ExecuteWave on its own
// WaveExec, so each round holds both execs' batches before converting
// either; each one's waves concatenate to one ExecuteBatch.
func TestWaveExecsInterleaved(t *testing.T) {
	for name, root := range wavePlans(t) {
		e := New(Config{Workers: 3, PartitionSize: 128, SerialCutoff: 1})
		want, err := e.ExecuteBatch(root, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ws [2]*WaveExec
		var got [2]*ops.Rows
		for i := range ws {
			if ws[i], err = e.PrepareWaves(root, 5); err != nil || ws[i] == nil {
				t.Fatalf("%s: PrepareWaves: %v", name, err)
			}
			schema, err := ws[i].OutSchema()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = &ops.Rows{Cols: schema, LSch: ws[i].st.in.LSch}
		}
		// Different wave sizes keep the two streams' batches different.
		step := [2]int{2, 3}
		lo := [2]int{}
		for lo[0] < ws[0].Partitions() || lo[1] < ws[1].Partitions() {
			var bs [2]*batch.Batch
			for i, w := range ws {
				if lo[i] >= w.Partitions() {
					continue
				}
				hi := min(lo[i]+step[i], w.Partitions())
				if bs[i], err = w.ExecuteWave(lo[i], hi); err != nil {
					t.Fatalf("%s: exec %d wave [%d,%d): %v", name, i, lo[i], hi, err)
				}
				lo[i] = hi
			}
			for i, b := range bs {
				if b != nil {
					got[i].Data = append(got[i].Data, b.ToRows().Data...)
				}
			}
			// A released WaveExec stays usable: exec 1 hands each batch
			// back before its next wave, as a stream does at its end.
			ws[1].Release()
		}
		for i := range got {
			sameRows(t, fmt.Sprintf("%s exec %d", name, i), want.ToRows(), got[i])
		}
	}
}

// TestPrepareWavesDeclinesUnsupported: joins and WOR sampling cannot run
// wave-by-wave; PrepareWaves must signal fallback, not fail.
func TestPrepareWavesDeclinesUnsupported(t *testing.T) {
	tables := genTables(t, 500)
	wor, _ := sampling.NewWOR("lineitem", 50)
	unsupported := map[string]plan.Node{
		"join": query1Plan(tables),
		"wor":  &plan.Sample{Input: &plan.Scan{Rel: tables.Lineitem}, Method: wor},
	}
	e := New(Config{Workers: 2})
	for name, root := range unsupported {
		w, err := e.PrepareWaves(root, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w != nil {
			t.Fatalf("%s: expected nil WaveExec for unsupported shape", name)
		}
	}
}

// TestWaveRowsThrough checks the cumulative-row bookkeeping the online
// layer's fraction-scanned values come from.
func TestWaveRowsThrough(t *testing.T) {
	tables := genTables(t, 500)
	e := New(Config{Workers: 2, PartitionSize: 128})
	w, err := e.PrepareWaves(&plan.Scan{Rel: tables.Lineitem}, 1)
	if err != nil || w == nil {
		t.Fatalf("PrepareWaves: %v %v", w, err)
	}
	if got := w.RowsThrough(0); got != 0 {
		t.Fatalf("RowsThrough(0) = %d", got)
	}
	if got := w.RowsThrough(1); got != 128 {
		t.Fatalf("RowsThrough(1) = %d", got)
	}
	if got := w.RowsThrough(w.Partitions()); got != w.InputRows() {
		t.Fatalf("RowsThrough(all) = %d, want %d", got, w.InputRows())
	}
	if got := w.RowsThrough(w.Partitions() + 5); got != w.InputRows() {
		t.Fatalf("RowsThrough(beyond) = %d, want %d", got, w.InputRows())
	}
	if _, err := w.ExecuteWave(3, 1); err == nil {
		t.Fatal("inverted wave bounds must error")
	}
}

// TestContextCancelsExecution: a canceled engine context aborts between
// partitions with the context's error instead of finishing the scan.
func TestContextCancelsExecution(t *testing.T) {
	tables := genTables(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Config{Workers: 2, PartitionSize: 64, SerialCutoff: 1, Context: ctx})
	_, err := e.ExecuteBatch(query1Plan(tables), 1)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if ctx.Err() == nil || err.Error() != ctx.Err().Error() {
		t.Fatalf("got %v, want %v", err, ctx.Err())
	}
}

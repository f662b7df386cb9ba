package online

import (
	"context"
	"math"
	"testing"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
)

// TestPrefixGUS: the prefix model must scale the GUS sampling fraction by
// q (Prop. 8 compaction with Bernoulli(q)), and q = 1 must return the
// exact original parameters — no float round-trip.
func TestPrefixGUS(t *testing.T) {
	g, err := core.Bernoulli("r", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := prefixGUS(g, "r", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gw.A() != 0.4*0.5 {
		t.Fatalf("a = %v, want %v", gw.A(), 0.4*0.5)
	}
	same, err := prefixGUS(g, "r", 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != g {
		t.Fatal("q=1 must return the original parameters")
	}
	if _, err := prefixGUS(g, "r", 0); err == nil {
		t.Fatal("q=0 must error")
	}
}

func TestTargetMet(t *testing.T) {
	ok := []ValueUpdate{{RelHalfWidth: 0.005}, {RelHalfWidth: 0.01}}
	if !targetMet(ok, 0.01) {
		t.Fatal("target should be met")
	}
	for _, bad := range [][]ValueUpdate{
		{{RelHalfWidth: 0.005}, {RelHalfWidth: 0.02}},
		{{RelHalfWidth: math.Inf(1)}},
		{{RelHalfWidth: math.NaN()}},
	} {
		if targetMet(bad, 0.01) {
			t.Fatalf("target must not be met for %+v", bad)
		}
	}
}

// TestEmptyRelation: zero partitions still produce exactly one final,
// complete update.
func TestEmptyRelation(t *testing.T) {
	rel, err := relation.New("r", relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindFloat}))
	if err != nil {
		t.Fatal(err)
	}
	root := &plan.Scan{Rel: rel}
	e := engine.New(engine.Config{Workers: 2})
	waves, err := e.PrepareWaves(root, 1)
	if err != nil || waves == nil {
		t.Fatalf("PrepareWaves: %v %v", waves, err)
	}
	a, err := plan.Analyze(root)
	if err != nil {
		t.Fatal(err)
	}
	x := &Executor{
		G:     a.G,
		Waves: waves,
		Items: []Item{{Name: "s", Kind: "SUM", F: expr.Col("v")}},
	}
	var got []Update
	if err := x.Run(context.Background(), func(u Update) bool {
		got = append(got, u)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d updates", len(got))
	}
	u := got[0]
	if !u.Final || !u.Done || u.Reason != ReasonComplete || u.FractionScanned != 1 {
		t.Fatalf("unexpected final update: %+v", u)
	}
	if u.Values[0].Estimate != 0 || u.SampleRows != 0 {
		t.Fatalf("empty relation must estimate 0: %+v", u)
	}
}

// TestEmitFalseStopsStream: a consumer backing out ends the run cleanly.
func TestEmitFalseStopsStream(t *testing.T) {
	rel, err := relation.New("r", relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindFloat}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		rel.MustAppend(relation.Float(float64(i)))
	}
	root := &plan.Scan{Rel: rel}
	e := engine.New(engine.Config{Workers: 1, PartitionSize: 256})
	waves, err := e.PrepareWaves(root, 1)
	if err != nil || waves == nil {
		t.Fatalf("PrepareWaves: %v %v", waves, err)
	}
	a, err := plan.Analyze(root)
	if err != nil {
		t.Fatal(err)
	}
	x := &Executor{
		G:     a.G,
		Waves: waves,
		Items: []Item{{Name: "s", Kind: "SUM", F: expr.Col("v")}},
		Cfg:   Config{WaveRows: 256},
	}
	emits := 0
	if err := x.Run(context.Background(), func(u Update) bool {
		emits++
		return emits < 3
	}); err != nil {
		t.Fatal(err)
	}
	if emits != 3 {
		t.Fatalf("stream kept running: %d emits", emits)
	}
}

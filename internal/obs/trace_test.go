package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTraceSafe pins the disabled path: every method on a nil *Trace
// is a no-op, never a panic.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	idx := tr.Begin("scan", "t", 0)
	if idx != -1 {
		t.Fatalf("nil Begin = %d, want -1", idx)
	}
	tr.End(idx, 1, 1)
	tr.SetSpan(idx, func(s *Span) { s.Hit = true })
	tr.AddWave(0, 0.5, 1, 0.1, time.Millisecond)
	tr.Finish("sql", "shape")
	tr.SetPlanTree("tree")
	tr.OrderNodeSpans(map[int]int{0: 0})
	if got := tr.NodeSpans(0); got != nil {
		t.Fatalf("nil NodeSpans = %v", got)
	}
	if got := tr.Format(); got != "" {
		t.Fatalf("nil Format = %q", got)
	}
	if b, err := tr.JSON(); err != nil || (b != nil && string(b) != "null") {
		t.Fatalf("nil JSON = %s, %v", b, err)
	}
	if got := tr.StageTotals(); got != nil {
		t.Fatalf("nil StageTotals = %v", got)
	}
}

func TestTraceSpansAndFormat(t *testing.T) {
	tr := &Trace{QueryID: "q-1"}
	sp := tr.Begin("scan", "lineitem", 0)
	tr.End(sp, 100, 100)
	sp2 := tr.Begin("sample", "bernoulli(0.1)", 1)
	tr.End(sp2, 100, 12)
	tr.SetSpan(sp2, func(s *Span) { s.Fraction = 0.1; s.Partitions = 4 })
	tr.AddWave(0, 0.25, 42.0, 3.0, 2*time.Millisecond)
	tr.SetPlanTree("scan lineitem")
	tr.Finish("SELECT ...", "select ...")

	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[1].RowsOut != 12 || tr.Spans[1].Fraction != 0.1 || tr.Spans[1].Partitions != 4 {
		t.Fatalf("span fields not recorded: %+v", tr.Spans[1])
	}
	if tr.Total <= 0 {
		t.Fatal("Finish did not stamp Total")
	}
	got := tr.Format()
	for _, want := range []string{"q-1", "scan lineitem", "sample", "bernoulli(0.1)", "wave", "total:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Format missing %q:\n%s", want, got)
		}
	}
	if spans := tr.NodeSpans(1); len(spans) != 1 || spans[0].Name != "sample" {
		t.Fatalf("NodeSpans(1) = %+v", spans)
	}
	totals := tr.StageTotals()
	if len(totals) != 2 {
		t.Fatalf("StageTotals = %v", totals)
	}
	if names := StageNames(totals); len(names) != 2 || names[0] > names[1] {
		t.Fatalf("StageNames = %v", names)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := &Trace{}
	sp := tr.Begin("estimate", "b", -1)
	tr.End(sp, 10, 1)
	tr.AddWave(0, 0.5, 1.5, 0.2, time.Millisecond)
	tr.Finish("SELECT SUM(b) FROM t", "select sum ( b ) from t")
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SQL   string `json:"sql"`
		Spans []Span `json:"spans"`
		Waves []WavePoint
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("JSON output not parseable: %v\n%s", err, b)
	}
	if decoded.SQL != "SELECT SUM(b) FROM t" || len(decoded.Spans) != 1 {
		t.Fatalf("round trip lost data: %+v", decoded)
	}
}

// TestOrderNodeSpans: spans of concurrently executed plan nodes arrive in
// scheduler order; OrderNodeSpans puts them in serial execution order and
// leaves spans that belong to no node where they were.
func TestOrderNodeSpans(t *testing.T) {
	// Plan: join(0) over left chain(1) and right chain(3 over 4). Serial
	// execution records 1, 4, 3, then the join's build and probe.
	rank := map[int]int{1: 0, 4: 1, 3: 2, 0: 3}
	tr := &Trace{}
	for _, s := range []Span{
		{Name: "parse+plan", Node: -1},
		{Name: "fused", Label: "right-leaf", Node: 4},
		{Name: "fused", Label: "left", Node: 1},
		{Name: "select", Label: "right", Node: 3},
		{Name: "join-build", Node: 0},
		{Name: "join-probe", Node: 0},
		{Name: "estimate", Node: -1},
	} {
		tr.End(tr.Begin(s.Name, s.Label, s.Node), 1, 1)
	}
	tr.OrderNodeSpans(rank)
	var got []string
	for _, s := range tr.Spans {
		got = append(got, s.Name+s.Label)
	}
	want := []string{"parse+plan", "fusedleft", "fusedright-leaf", "selectright", "join-build", "join-probe", "estimate"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("span order %v, want %v", got, want)
	}
}

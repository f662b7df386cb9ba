package plan

import (
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/stats"
)

func TestEstimateCardinalities(t *testing.T) {
	li := lineitemRel(t, 4000, 800)
	ord := ordersRel(t, 800)
	n := query1Plan(t, li, ord)

	// Ground truth per node from the exact plan.
	exactRows, err := Execute(StripSampling(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	truthJoinSelect := float64(exactRows.Len())

	cards, err := EstimateCardinalities(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cards) != 6 { // σ, ⋈, sample, scan, sample, scan
		t.Fatalf("got %d node reports", len(cards))
	}
	root := cards[0]
	if !strings.HasPrefix(root.Label, "σ") || root.Depth != 0 {
		t.Fatalf("root report = %+v", root)
	}
	if root.StdErr <= 0 {
		t.Error("root cardinality estimate must carry uncertainty")
	}
	if stats.RelErr(root.Estimate, truthJoinSelect) > 0.5 {
		t.Errorf("root cardinality %v vs truth %v", root.Estimate, truthJoinSelect)
	}
	// Scan nodes are exact: estimate = relation size, stderr 0.
	for _, c := range cards {
		if strings.HasPrefix(c.Label, "scan l") {
			if c.Estimate != 4000 || c.StdErr != 0 {
				t.Errorf("scan report = %+v", c)
			}
		}
		if c.SampleRows < 0 {
			t.Errorf("negative sample rows: %+v", c)
		}
	}
	// Depths increase down the tree.
	if cards[1].Depth != 1 || cards[3].Depth != 3 {
		t.Errorf("depths = %v %v", cards[1].Depth, cards[3].Depth)
	}
}

func TestEstimateCardinalitiesUnbiased(t *testing.T) {
	li := lineitemRel(t, 2000, 400)
	ord := ordersRel(t, 400)
	n := query1Plan(t, li, ord)
	exactRows, err := Execute(StripSampling(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(exactRows.Len())
	var acc stats.Welford
	for seed := uint64(0); seed < 150; seed++ {
		cards, err := EstimateCardinalities(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(cards[0].Estimate)
	}
	if stats.RelErr(acc.Mean(), truth) > 0.1 {
		t.Errorf("mean root cardinality %v vs truth %v", acc.Mean(), truth)
	}
}

func TestEstimateCardinalitiesSelfJoinRejected(t *testing.T) {
	ord := ordersRel(t, 10)
	n := &Join{Left: &Scan{Rel: ord}, Right: &Scan{Rel: ord}, LeftCol: "o_orderkey", RightCol: "o_orderkey"}
	if _, err := EstimateCardinalities(n, 1); err == nil {
		t.Error("self-join accepted")
	}
}

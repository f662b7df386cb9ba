package plan

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
)

// NodeCardinality reports the estimated full-data output cardinality of
// one plan node, obtained from the sampled execution — the §8 "estimating
// the size of intermediate relations" application. Because COUNT is
// SUM-like (f ≡ 1), each node's count estimate is exactly Theorem 1
// applied to that node's own top GUS, and the reported StdErr quantifies
// the precision of the optimizer statistic, "thereby preventing the
// selection of inferior plans".
type NodeCardinality struct {
	// Label identifies the node (Node.Label).
	Label string
	// Depth is the node's depth in the plan tree (root = 0).
	Depth int
	// SampleRows is the number of tuples the node emitted under sampling.
	SampleRows int
	// Estimate is the estimated number of tuples the node would emit with
	// sampling removed.
	Estimate float64
	// StdErr is the standard error of that estimate.
	StdErr float64
}

// EstimateCardinalities executes the plan once under seed and returns, for
// every node, the estimated exact-output cardinality with its standard
// error. Every node is priced on the sample it emits in that one execution
// (the root's numbering keys every subtree's sub-seeds). Sample and GUS
// nodes are reported too (their estimates refer to their own — sampled —
// output, scaled by their subtree's GUS).
func EstimateCardinalities(n Node, seed uint64) ([]NodeCardinality, error) {
	ids := NumberNodes(n)
	var out []NodeCardinality
	var walk func(Node, int) error
	walk = func(node Node, depth int) error {
		analysis, err := Analyze(node)
		if err != nil {
			return err
		}
		rows, err := execute(node, seed, ids)
		if err != nil {
			return err
		}
		res, err := estimator.Estimate(analysis.G, rows, expr.Int(1), estimator.Options{})
		if err != nil {
			return fmt.Errorf("plan: cardinality of %s: %w", node.Label(), err)
		}
		out = append(out, NodeCardinality{
			Label:      node.Label(),
			Depth:      depth,
			SampleRows: rows.Len(),
			Estimate:   res.Estimate,
			StdErr:     res.StdDev(),
		})
		for _, c := range node.Children() {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n, 0); err != nil {
		return nil, err
	}
	return out, nil
}

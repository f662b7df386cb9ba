package plan

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Execute is the serial reference executor: it runs the plan on one
// goroutine, performing real sampling with the given RNG, and returns the
// result rows with their lineage. GUS quasi-operators are pass-throughs
// at execution time (§4.2: "there is no need to provide … an
// implementation of a general GUS operator").
//
// Production queries route through internal/engine, the parallel
// partitioned executor; Execute remains the semantics oracle the engine
// is tested against (for sampling-free plans the two produce identical
// rows) and the executor for one-shot internal row counts.
func Execute(n Node, rng *stats.RNG) (*ops.Rows, error) {
	switch t := n.(type) {
	case *Scan:
		return ops.FromRelation(t.Rel, t.LineageName())
	case *Sample:
		in, err := Execute(t.Input, rng)
		if err != nil {
			return nil, err
		}
		out, err := t.Method.Apply(in, rng)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", t.Label(), err)
		}
		return out, nil
	case *Select:
		in, err := Execute(t.Input, rng)
		if err != nil {
			return nil, err
		}
		return ops.Select(in, t.Pred)
	case *Join:
		l, err := Execute(t.Left, rng)
		if err != nil {
			return nil, err
		}
		r, err := Execute(t.Right, rng)
		if err != nil {
			return nil, err
		}
		return ops.HashJoin(l, r, t.LeftCol, t.RightCol)
	case *Theta:
		l, err := Execute(t.Left, rng)
		if err != nil {
			return nil, err
		}
		r, err := Execute(t.Right, rng)
		if err != nil {
			return nil, err
		}
		return ops.ThetaJoin(l, r, t.Pred)
	case *Project:
		in, err := Execute(t.Input, rng)
		if err != nil {
			return nil, err
		}
		return ops.Project(in, t.Names, t.Exprs)
	case *Union:
		l, err := Execute(t.Left, rng)
		if err != nil {
			return nil, err
		}
		r, err := Execute(t.Right, rng)
		if err != nil {
			return nil, err
		}
		return ops.Union(l, r)
	case *Intersect:
		l, err := Execute(t.Left, rng)
		if err != nil {
			return nil, err
		}
		r, err := Execute(t.Right, rng)
		if err != nil {
			return nil, err
		}
		return ops.Intersect(l, r)
	case *GUS:
		return Execute(t.Input, rng)
	default:
		return nil, fmt.Errorf("plan: execute: unknown node %T", n)
	}
}

// deterministicCount executes the sampling-free subtree under n and returns
// its row count — the cardinality oracle for WOR-style GUS translation. It
// errors if the subtree contains sampling (a WOR whose population is itself
// random has data-dependent GUS parameters, which the algebra does not
// cover; the paper samples base relations, where this never arises).
func deterministicCount(n Node) (int, error) {
	var random Node
	Walk(n, func(c Node) {
		if _, ok := c.(*Sample); ok && random == nil {
			random = c
		}
	})
	if random != nil {
		return 0, fmt.Errorf("plan: cardinality of a randomized input is data-dependent (%s below a fixed-size sample)", random.Label())
	}
	// The common shape — WOR applied directly to a base table, possibly
	// under GUS quasi-operators — needs no execution at all.
	for {
		switch t := n.(type) {
		case *Scan:
			return t.Rel.Len(), nil
		case *GUS:
			n = t.Input
			continue
		}
		break
	}
	rows, err := Execute(n, nil)
	if err != nil {
		return 0, err
	}
	return rows.Len(), nil
}

package plan

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/ops"
)

// NumberNodes assigns each plan node a stable id by pre-order walk (a node
// reached twice keeps its first id): the node component of sampling
// sub-seeds, and the id trace spans carry. Rebuilding the same plan yields
// the same numbering.
func NumberNodes(root Node) map[Node]uint64 {
	ids := make(map[Node]uint64)
	var next uint64
	Walk(root, func(n Node) {
		if _, ok := ids[n]; !ok {
			ids[n] = next
			next++
		}
	})
	return ids
}

// SubSeed derives the sub-seed a Sample node's row-, block- and rank-keyed
// decisions hash with from the query seed and the node's number
// (SplitMix64-style finalization, so nearby inputs yield decorrelated
// sub-seeds). Both executors derive it this way, so the same (plan, seed)
// draws the same sample in each, at any worker count and partition size.
func SubSeed(seed, node uint64) uint64 {
	z := seed ^ (node+1)*0x9e3779b97f4a7c15 ^ 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Execute is the serial reference executor: it runs the plan on one
// goroutine, performing real sampling by each method's keep rule under the
// node's sub-seed (SubSeed), and returns the result rows with their
// lineage. GUS quasi-operators are pass-throughs at execution time (§4.2:
// "there is no need to provide … an implementation of a general GUS
// operator").
//
// Production queries route through internal/engine, the parallel
// partitioned executor; Execute is the semantics oracle the engine is
// tested against — for the same (plan, seed) the two produce identical
// rows, sampled or not — and the executor for one-shot internal row counts.
func Execute(n Node, seed uint64) (*ops.Rows, error) {
	return execute(n, seed, NumberNodes(n))
}

// execute runs n's inputs left to right, then n itself.
func execute(n Node, seed uint64, ids map[Node]uint64) (*ops.Rows, error) {
	kids := n.Children()
	in := make([]*ops.Rows, len(kids))
	for i, c := range kids {
		var err error
		if in[i], err = execute(c, seed, ids); err != nil {
			return nil, err
		}
	}
	switch t := n.(type) {
	case *Scan:
		return ops.FromRelation(t.Rel, t.LineageName())
	case *Sample:
		out, err := t.Method.Apply(in[0], SubSeed(seed, ids[n]))
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", t.Label(), err)
		}
		return out, nil
	case *Select:
		return ops.Select(in[0], t.Pred)
	case *Join:
		return ops.HashJoin(in[0], in[1], t.LeftCol, t.RightCol)
	case *Theta:
		return ops.ThetaJoin(in[0], in[1], t.Pred)
	case *Project:
		return ops.Project(in[0], t.Names, t.Exprs)
	case *Union:
		return ops.Union(in[0], in[1])
	case *Intersect:
		return ops.Intersect(in[0], in[1])
	case *GUS:
		return in[0], nil
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
	rows, err := Execute(n, 0)
	if err != nil {
		return 0, err
	}
	return rows.Len(), nil
}

package gus

// Column pruning: a per-execution plan rewrite that records on every scan
// the subset of its columns the rest of the query can read — aggregate
// arguments, GROUP BY, selection/join/projection inputs. The engine then
// materializes sampled tuples only that wide (batch.Narrow), which on a
// TPC-H Q1-style query is the difference between gathering all sixteen
// lineitem columns per sampled tuple and the two the SUM touches. Like
// the synopsis rewrite it runs on the freshly bound plan through
// plan.Rewrite, which copies only the spine above a narrowed scan, so
// cached templates stay untouched; it never changes plan shape or node
// numbering, so seeded sampling realizations are bit-identical with
// pruning on or off.

import (
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// neededColumns collects every column name the query can reference above
// its scans. Column names are globally unique across a query's tables
// (the planner rejects duplicates), so one set serves all scans.
func neededColumns(p *sqlparse.Planned) map[string]bool {
	need := map[string]bool{}
	add := func(cols []string) {
		for _, c := range cols {
			need[c] = true
		}
	}
	for _, a := range p.Aggregates {
		if a.Arg != nil {
			add(expr.Columns(a.Arg))
		}
	}
	if p.GroupBy != "" {
		need[p.GroupBy] = true
	}
	plan.Walk(p.Root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Select:
			add(expr.Columns(t.Pred))
		case *plan.Join:
			need[t.LeftCol] = true
			need[t.RightCol] = true
		case *plan.Theta:
			add(expr.Columns(t.Pred))
		case *plan.Project:
			for _, e := range t.Exprs {
				add(expr.Columns(e))
			}
		}
	})
	return need
}

// pruneScanColumns sets each scan's Cols to the needed subset of its
// schema, in schema order. A scan whose columns are all needed keeps Cols
// nil (no narrowing); a scan none of whose columns are referenced
// (COUNT(*)) keeps its first column as the row spine.
func pruneScanColumns(n plan.Node, need map[string]bool) plan.Node {
	return plan.Rewrite(n, func(n plan.Node) plan.Node {
		s, ok := n.(*plan.Scan)
		if !ok {
			return n
		}
		cols := prunedCols(s, need)
		if cols == nil {
			return s
		}
		c := *s
		c.Cols = cols
		return &c
	})
}

func prunedCols(s *plan.Scan, need map[string]bool) []string {
	sch := s.Rel.Schema()
	kept := make([]string, 0, len(need))
	for _, c := range sch.Columns() {
		if need[c.Name] {
			kept = append(kept, c.Name)
		}
	}
	if len(kept) == sch.Len() {
		return nil
	}
	if len(kept) == 0 {
		kept = append(kept, sch.Col(0).Name)
	}
	return kept
}

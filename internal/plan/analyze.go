package plan

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/lineage"
)

// Step records one SOA-equivalence rewrite applied while pushing GUS
// operators to the top of the plan — the machinery of Figures 2, 4 and 5.
type Step struct {
	Rule   string       // which proposition was applied
	Detail string       // what it was applied to
	Result *core.Params // the GUS parameters after the step
}

// String renders the step as "Rule: Detail ⇒ params".
func (s Step) String() string {
	return fmt.Sprintf("%s: %s ⇒ %s", s.Rule, s.Detail, s.Result)
}

// Analysis is the outcome of rewriting a plan into SOA-equivalent form:
// a single top GUS operator G over the plan's lineage schema, plus the
// trace of rewrite steps that produced it.
type Analysis struct {
	// G is the top GUS quasi-operator; its schema lists the plan's base
	// relations in the exact order of the executed rows' lineage vectors.
	G *core.Params
	// Steps is the rewrite trace, leaf-to-root.
	Steps []Step
}

// Schema returns the lineage schema of the analyzed plan.
func (a *Analysis) Schema() *lineage.Schema { return a.G.Schema() }

// Analyze rewrites the plan into SOA-equivalent single-GUS form (§4, §6.1):
// concrete sampling operators are translated to GUS quasi-operators (§4.2,
// Figure 1) and pushed above selections (Prop. 5), joins (Prop. 6), unions
// (Prop. 7) and stacked samplings (Prop. 8) until one GUS remains below the
// aggregate. The resulting parameters drive Theorem 1.
//
// Analyze never executes sampling; it touches data only to resolve the
// cardinality that WOR translation needs (Figure 1), and only beneath WOR
// nodes.
func Analyze(n Node) (*Analysis, error) {
	a := &Analysis{}
	g, err := a.analyze(n)
	if err != nil {
		return nil, err
	}
	a.G = g
	return a, nil
}

func (a *Analysis) analyze(n Node) (*core.Params, error) {
	switch t := n.(type) {
	case *Scan:
		schema, err := lineage.NewSchema(t.LineageName())
		if err != nil {
			return nil, err
		}
		return core.Identity(schema), nil

	case *Sample:
		in, err := a.analyze(t.Input)
		if err != nil {
			return nil, err
		}
		card := func(string) (int, error) { return deterministicCount(t.Input) }
		mp, err := t.Method.Params(card)
		if err != nil {
			return nil, fmt.Errorf("plan: analyze %s: %w", t.Label(), err)
		}
		a.step("§4.2 (sampling → GUS)", "translate "+t.Method.Name(), mp)
		ext, err := mp.Extend(in.Schema())
		if err != nil {
			return nil, fmt.Errorf("plan: analyze %s: %w", t.Label(), err)
		}
		out, err := core.Compact(in, ext)
		if err != nil {
			return nil, fmt.Errorf("plan: analyze %s: %w", t.Label(), err)
		}
		if !in.IsIdentity() {
			a.step("Prop. 8 (compaction)", "stack "+t.Method.Name()+" on sampled input", out)
		}
		return out, nil

	case *Select:
		in, err := a.analyze(t.Input)
		if err != nil {
			return nil, err
		}
		if !in.IsIdentity() {
			a.step("Prop. 5 (σ–GUS commutativity)", "commute GUS above σ "+t.Pred.String(), in)
		}
		return in, nil

	case *Project:
		// Projection neither filters nor duplicates tuples and leaves
		// lineage untouched, so it is transparent exactly like selection.
		return a.analyze(t.Input)

	case *Join:
		return a.analyzeJoin(t.Left, t.Right, t.Label())

	case *Theta:
		return a.analyzeJoin(t.Left, t.Right, t.Label())

	case *Union:
		l, err := a.analyze(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := a.analyze(t.Right)
		if err != nil {
			return nil, err
		}
		out, err := core.Union(l, r)
		if err != nil {
			return nil, fmt.Errorf("plan: analyze union: %w", err)
		}
		a.step("Prop. 7 (GUS union)", "merge independent samples", out)
		return out, nil

	case *Intersect:
		l, err := a.analyze(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := a.analyze(t.Right)
		if err != nil {
			return nil, err
		}
		out, err := core.Compact(l, r)
		if err != nil {
			return nil, fmt.Errorf("plan: analyze intersect: %w", err)
		}
		a.step("Prop. 8 (compaction)", "intersect independent samples", out)
		return out, nil

	case *GUS:
		in, err := a.analyze(t.Input)
		if err != nil {
			return nil, err
		}
		ext, err := t.G.Extend(in.Schema())
		if err != nil {
			return nil, fmt.Errorf("plan: analyze GUS node: %w", err)
		}
		out, err := core.Compact(in, ext)
		if err != nil {
			return nil, fmt.Errorf("plan: analyze GUS node: %w", err)
		}
		a.step("Prop. 8 (compaction)", "declared quasi-operator", out)
		return out, nil

	default:
		return nil, fmt.Errorf("plan: analyze: unknown node %T", n)
	}
}

func (a *Analysis) analyzeJoin(left, right Node, label string) (*core.Params, error) {
	l, err := a.analyze(left)
	if err != nil {
		return nil, err
	}
	r, err := a.analyze(right)
	if err != nil {
		return nil, err
	}
	out, err := core.Join(l, r)
	if err != nil {
		return nil, fmt.Errorf("plan: analyze %s: %w", label, err)
	}
	if !l.IsIdentity() || !r.IsIdentity() {
		a.step("Prop. 6 (⋈–GUS commutativity)", "combine GUS across "+label, out)
	}
	return out, nil
}

func (a *Analysis) step(rule, detail string, result *core.Params) {
	a.Steps = append(a.Steps, Step{Rule: rule, Detail: detail, Result: result})
}

// FormatTrace renders the rewrite trace, one step per line.
func (a *Analysis) FormatTrace() string {
	out := ""
	for i, s := range a.Steps {
		out += fmt.Sprintf("%2d. %s\n", i+1, s)
	}
	return out
}

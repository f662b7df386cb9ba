// Package soa provides an empirical checker for Second Order Analytical
// (SOA) equivalence between randomized query plans.
//
// Proposition 3 characterizes SOA-equivalence by first- and second-order
// inclusion probabilities: E(R) ⟺ F(R) iff P[t ∈ E(R)] = P[t ∈ F(R)] and
// P[t,t′ ∈ E(R)] = P[t,t′ ∈ F(R)] for all tuples t, t′. This package
// estimates those probabilities by repeated execution and compares plans —
// the test oracle behind Propositions 4–9.
package soa

import (
	"fmt"
	"math"
	"sort"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Trial runs one randomized execution under the given seed and reports the
// lineage keys of the tuples included in the result. Keys must identify
// tuples stably across trials (lineage.Vector.Key does).
type Trial func(seed uint64) ([]string, error)

// PlanTrial adapts a query plan into a Trial.
func PlanTrial(n plan.Node) Trial {
	return func(seed uint64) ([]string, error) {
		rows, err := plan.Execute(n, seed)
		if err != nil {
			return nil, err
		}
		keys := make([]string, rows.Len())
		for i, row := range rows.Data {
			keys[i] = row.Lin.Key()
		}
		return keys, nil
	}
}

// Profile holds empirical first- and second-order inclusion probabilities.
type Profile struct {
	Trials int
	// First maps tuple key → P̂[t ∈ result].
	First map[string]float64
	// Second maps unordered distinct pairs → P̂[t,t′ ∈ result].
	Second map[[2]string]float64
}

// pairKey builds the canonical unordered key.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// EstimateProfile runs the trial repeatedly, under trial seeds drawn from
// seed, and accumulates inclusion frequencies. Pair accounting is quadratic in the per-trial result size;
// keep populations small.
func EstimateProfile(trial Trial, trials int, seed uint64) (*Profile, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("soa: trials must be positive")
	}
	rng := stats.NewRNG(seed)
	firstCnt := map[string]int{}
	secondCnt := map[[2]string]int{}
	for i := 0; i < trials; i++ {
		keys, err := trial(rng.Uint64())
		if err != nil {
			return nil, err
		}
		// A GUS result is a set; tolerate (and collapse) duplicates.
		uniq := keys[:0:0]
		seen := map[string]bool{}
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, k)
			}
		}
		sort.Strings(uniq)
		for _, k := range uniq {
			firstCnt[k]++
		}
		for x := 0; x < len(uniq); x++ {
			for y := x + 1; y < len(uniq); y++ {
				secondCnt[pairKey(uniq[x], uniq[y])]++
			}
		}
	}
	p := &Profile{
		Trials: trials,
		First:  make(map[string]float64, len(firstCnt)),
		Second: make(map[[2]string]float64, len(secondCnt)),
	}
	for k, c := range firstCnt {
		p.First[k] = float64(c) / float64(trials)
	}
	for k, c := range secondCnt {
		p.Second[k] = float64(c) / float64(trials)
	}
	return p, nil
}

// MaxDiff returns the largest absolute discrepancy in first- and
// second-order inclusion probabilities between two profiles (missing
// entries count as probability zero).
func (p *Profile) MaxDiff(q *Profile) (first, second float64) {
	for k, v := range p.First {
		if d := math.Abs(v - q.First[k]); d > first {
			first = d
		}
	}
	for k, v := range q.First {
		if _, ok := p.First[k]; !ok && v > first {
			first = v
		}
	}
	for k, v := range p.Second {
		if d := math.Abs(v - q.Second[k]); d > second {
			second = d
		}
	}
	for k, v := range q.Second {
		if _, ok := p.Second[k]; !ok && v > second {
			second = v
		}
	}
	return first, second
}

// CheckEquivalent estimates both profiles and errors if any inclusion
// probability differs by more than tol — an empirical Prop. 3 test.
func CheckEquivalent(a, b Trial, trials int, seed uint64, tol float64) error {
	pa, err := EstimateProfile(a, trials, seed)
	if err != nil {
		return fmt.Errorf("soa: profiling first plan: %w", err)
	}
	pb, err := EstimateProfile(b, trials, seed+1)
	if err != nil {
		return fmt.Errorf("soa: profiling second plan: %w", err)
	}
	f, s := pa.MaxDiff(pb)
	if f > tol {
		return fmt.Errorf("soa: first-order inclusion probabilities differ by %v (tol %v)", f, tol)
	}
	if s > tol {
		return fmt.Errorf("soa: second-order inclusion probabilities differ by %v (tol %v)", s, tol)
	}
	return nil
}

// AggregateMoments estimates (E, Var) of the SUM aggregate of f over the
// plan's randomized result — Definition 2's quantities, for direct
// SOA-equivalence checks on aggregates.
func AggregateMoments(n plan.Node, f expr.Expr, trials int, seed uint64) (mean, variance float64, err error) {
	rng := stats.NewRNG(seed)
	var w stats.Welford
	for i := 0; i < trials; i++ {
		rows, err := plan.Execute(n, rng.Uint64())
		if err != nil {
			return 0, 0, err
		}
		_, total, err := ops.SumF(rows, f)
		if err != nil {
			return 0, 0, err
		}
		w.Add(total)
	}
	return w.Mean(), w.Variance(), nil
}

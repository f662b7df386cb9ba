// Package engine is oracleimport testdata: the serve path may share the
// partitioning helpers with the reference stack, and nothing else.
package engine

import (
	"oracle/ops"
	"oracle/plan"
	"oracle/sampling"
)

// Spans uses the shared partitioning helpers: allowed.
func Spans(n int) []ops.Span { return ops.Partitions(n, ops.DefaultPartitionSize) }

// Label reads plan metadata: allowed.
func Label(s *plan.Sample) string { return plan.Format(s) + s.Method.Name() }

// Fallback is the deleted row-major escape hatch.
func Fallback(s *plan.Sample, in *ops.Rows) error { // want `ops.Rows on the serve path`
	_, err := s.Method.Apply(in) // want `sampling.Method.Apply on the serve path`
	return err
}

// Concrete calls a concrete method's reference sampler.
func Concrete(b *sampling.Bernoulli) {
	rows := []ops.Row{{}}                 // want `ops.Row on the serve path`
	_, _ = b.Apply(&ops.Rows{Data: rows}) // want `sampling.Method.Apply on the serve path` `ops.Rows on the serve path`
}

// Serial runs the reference executor on a query path.
func Serial(s *plan.Sample) error {
	_, err := plan.Execute(s) // want `plan.Execute on the serve path`
	return err
}

// Package plan is oracleimport testdata: plan nodes and the serial
// reference executor.
package plan

import (
	"oracle/ops"
	"oracle/sampling"
)

// Sample is a sampling node.
type Sample struct{ Method sampling.Method }

// Execute is the serial reference executor.
func Execute(s *Sample) (*ops.Rows, error) { return s.Method.Apply(&ops.Rows{}) }

// Format renders a plan; not part of the oracle.
func Format(s *Sample) string { return s.Method.Name() }

// Package soa is oracleimport testdata: off the serve path the reference
// stack is exactly what a property check is for.
package soa

import (
	"oracle/ops"
	"oracle/plan"
)

// Check compares against the reference executor: allowed here.
func Check(s *plan.Sample) (*ops.Rows, error) { return plan.Execute(s) }

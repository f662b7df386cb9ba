// Package sampling is oracleimport testdata: methods whose Apply is the
// row-major reference sampler.
package sampling

import "oracle/ops"

// Method is a sampling operator.
type Method interface {
	Name() string
	Apply(in *ops.Rows) (*ops.Rows, error)
}

// Bernoulli keeps each row with probability P.
type Bernoulli struct{ P float64 }

func (b *Bernoulli) Name() string                          { return "bernoulli" }
func (b *Bernoulli) Apply(in *ops.Rows) (*ops.Rows, error) { return in, nil }

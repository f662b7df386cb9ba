// Package ops is oracleimport testdata: the reference executor's row-major
// representation next to the partitioning helpers the engine shares.
package ops

// Row is one row-major tuple.
type Row struct{ Vals []float64 }

// Rows is a row-major result.
type Rows struct{ Data []Row }

// Span is a half-open row range.
type Span struct{ Lo, Hi int }

// DefaultPartitionSize is the morsel size.
const DefaultPartitionSize = 4096

// Partitions splits n rows into spans.
func Partitions(n, size int) []Span { return []Span{{0, n}} }

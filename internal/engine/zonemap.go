// Zone-map partition skipping: before the fused kernel touches a
// partition's rows, its predicates are evaluated over the partition's zone
// map (per-column min/max from the scan snapshot) with interval arithmetic.
// A partition is skipped only when some predicate is PROVABLY false for
// every row the zone admits — so skipping can never change which rows
// survive, only avoid touching rows that provably would not.
//
// Skipping is statistically safe, not just row-safe: every sampling
// decision is a pure function of (seed, node, row index) or of the row's
// lineage, with no state carried between rows, so not executing a
// partition whose predicate rejects all rows leaves every other
// partition's output — and therefore the estimator's sample — bit-exact.
//
// The analysis is deliberately conservative. Any construct it cannot bound
// evaluates to "unknown", which never prunes: string columns (zone maps
// carry no string stats), NaN-bearing or all-NaN float zones (NaN compares
// false but NOT() flips that to true), division by an interval containing
// zero, integer magnitudes beyond 2^52 (float64 would round them), and
// integer arithmetic that could overflow. Float arithmetic bounds are
// widened by two ulps per operation so interval rounding can never shave
// off a value the kernel would compute.
package engine

import (
	"math"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/relation"
)

// maxExactInt bounds the integer magnitudes the pruner reasons about:
// beyond 2^52 the float64 analysis could round, so bigger values are
// "unknown" (never pruned). One bit under float64's 2^53 for margin.
const maxExactInt = 1 << 52

// zonePruner decides, per partition, whether a fused chain's predicates
// provably reject every row the partition's zone map admits.
type zonePruner struct {
	conjs  []expr.Expr
	schema *relation.Schema
	params []relation.Value
}

// newZonePruner builds a pruner for the chain's predicates, or nil when
// there is nothing to prune on (no predicates).
func (e *Engine) newZonePruner(preds []expr.Expr, schema *relation.Schema) *zonePruner {
	var conjs []expr.Expr
	for _, p := range preds {
		conjs = append(conjs, expr.Conjuncts(p)...)
	}
	if len(conjs) == 0 {
		return nil
	}
	return &zonePruner{conjs: conjs, schema: schema, params: e.params}
}

// skip reports whether partition part can be skipped: some conjunct is
// provably false over the zone. Conjuncts beyond the first are applied to
// the predicate's survivors, so ANY provably-false conjunct empties the
// partition regardless of sampling or the other predicates.
//
// Caveat (documented in the README): if an earlier predicate would have
// raised a runtime evaluation error on some row, skipping on a later
// provably-false predicate also skips that error. Errors the fused kernel
// can raise are type mismatches, which compile-time checking already
// rejects, so no such query exists today.
func (zp *zonePruner) skip(z *relation.Zones, part int) bool {
	if part >= z.Parts() {
		return false
	}
	for _, c := range zp.conjs {
		if v := zp.eval(c, z, part); v.isB && !v.mayT {
			return true
		}
	}
	return false
}

// zval is an abstract value: a numeric interval (num), a boolean tri-state
// (isB), or unknown (neither) — the lattice top that never prunes.
type zval struct {
	lo, hi     float64
	num        bool // lo/hi are valid closed bounds over the zone's rows
	exactInt   bool // all values are integers computed exactly so far
	isB        bool // mayT/mayF are valid
	mayT, mayF bool
}

var zUnknown = zval{}

func zNum(lo, hi float64, exactInt bool) zval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return zUnknown
	}
	if exactInt && (lo < -maxExactInt || hi > maxExactInt) {
		// Could overflow int64 downstream or already lost exactness.
		return zUnknown
	}
	return zval{lo: lo, hi: hi, num: true, exactInt: exactInt}
}

func zBool(mayT, mayF bool) zval { return zval{isB: true, mayT: mayT, mayF: mayF} }

// asBool coerces a zval to the kernel's truthiness (non-zero is true).
func (v zval) asBool() zval {
	if v.isB {
		return v
	}
	if !v.num {
		return zBool(true, true)
	}
	return zBool(!(v.lo == 0 && v.hi == 0), v.lo <= 0 && 0 <= v.hi)
}

func (zp *zonePruner) eval(x expr.Expr, z *relation.Zones, part int) zval {
	switch t := x.(type) {
	case expr.ColRef:
		j, ok := zp.schema.Index(t.Name)
		if !ok {
			return zUnknown
		}
		return colZone(z.At(part, j), zp.schema.Col(j).Kind)
	case expr.Const:
		return constZ(t.Value)
	case expr.ParamRef:
		if t.Index < 0 || t.Index >= len(zp.params) {
			return zUnknown
		}
		return constZ(zp.params[t.Index])
	case expr.Not:
		v := zp.eval(t.X, z, part).asBool()
		return zBool(v.mayF, v.mayT)
	case expr.Binary:
		return zp.evalBinary(t, z, part)
	default:
		return zUnknown
	}
}

func colZone(zn relation.Zone, kind relation.Kind) zval {
	if zn.Flags&(relation.ZoneHasNaN|relation.ZoneNoStats) != 0 || zn.Nulls > 0 {
		return zUnknown
	}
	switch kind {
	case relation.KindInt:
		return zNum(float64(zn.MinI), float64(zn.MaxI), true)
	case relation.KindFloat:
		return zNum(zn.MinF, zn.MaxF, false)
	default:
		return zUnknown
	}
}

func constZ(v relation.Value) zval {
	switch v.Kind() {
	case relation.KindInt:
		i, err := v.AsInt()
		if err != nil {
			return zUnknown
		}
		return zNum(float64(i), float64(i), true)
	case relation.KindFloat:
		f, err := v.AsFloat()
		if err != nil || math.IsNaN(f) {
			return zUnknown
		}
		return zNum(f, f, false)
	default:
		return zUnknown
	}
}

func (zp *zonePruner) evalBinary(b expr.Binary, z *relation.Zones, part int) zval {
	switch b.Op {
	case expr.OpAnd:
		l := zp.eval(b.L, z, part).asBool()
		r := zp.eval(b.R, z, part).asBool()
		return zBool(l.mayT && r.mayT, l.mayF || r.mayF)
	case expr.OpOr:
		l := zp.eval(b.L, z, part).asBool()
		r := zp.eval(b.R, z, part).asBool()
		return zBool(l.mayT || r.mayT, l.mayF && r.mayF)
	}
	l := zp.eval(b.L, z, part)
	r := zp.eval(b.R, z, part)
	if !l.num || !r.num {
		if b.Op.IsComparison() {
			return zBool(true, true)
		}
		return zUnknown
	}
	switch b.Op {
	case expr.OpAdd:
		return arith(l.lo+r.lo, l.hi+r.hi, l, r)
	case expr.OpSub:
		return arith(l.lo-r.hi, l.hi-r.lo, l, r)
	case expr.OpMul:
		return arith(min4(l.lo*r.lo, l.lo*r.hi, l.hi*r.lo, l.hi*r.hi),
			max4(l.lo*r.lo, l.lo*r.hi, l.hi*r.lo, l.hi*r.hi), l, r)
	case expr.OpDiv:
		if r.lo <= 0 && 0 <= r.hi {
			// Divisor may be zero; the quotient is unbounded (or an error).
			return zUnknown
		}
		q := arith(min4(l.lo/r.lo, l.lo/r.hi, l.hi/r.lo, l.hi/r.hi),
			max4(l.lo/r.lo, l.lo/r.hi, l.hi/r.lo, l.hi/r.hi), l, r)
		if q.num && (l.exactInt || r.exactInt) {
			// Integer division truncates toward zero; widen the real-valued
			// quotient interval to cover the truncated values too (trunc is
			// monotonic, so its image is [trunc(lo), trunc(hi)]).
			q = zNum(math.Min(q.lo, math.Trunc(q.lo)), math.Max(q.hi, math.Trunc(q.hi)), false)
		}
		return q
	case expr.OpEq:
		if l.hi < r.lo || r.hi < l.lo {
			return zBool(false, true)
		}
		if l.lo == l.hi && r.lo == r.hi && l.lo == r.lo {
			return zBool(true, false)
		}
		return zBool(true, true)
	case expr.OpNe:
		eq := zp.cmpConst(l, r, expr.OpEq)
		return zBool(eq.mayF, eq.mayT)
	case expr.OpLt:
		return cmpIntervals(l, r, false)
	case expr.OpLe:
		return cmpIntervals(l, r, true)
	case expr.OpGt:
		return cmpIntervals(r, l, false)
	case expr.OpGe:
		return cmpIntervals(r, l, true)
	default:
		return zUnknown
	}
}

// cmpConst re-evaluates a comparison on already-evaluated operands.
func (zp *zonePruner) cmpConst(l, r zval, op expr.Op) zval {
	switch op {
	case expr.OpEq:
		if l.hi < r.lo || r.hi < l.lo {
			return zBool(false, true)
		}
		if l.lo == l.hi && r.lo == r.hi && l.lo == r.lo {
			return zBool(true, false)
		}
	}
	return zBool(true, true)
}

// cmpIntervals decides l < r (or l <= r with orEq) over closed intervals.
func cmpIntervals(l, r zval, orEq bool) zval {
	if orEq {
		switch {
		case l.hi <= r.lo:
			return zBool(true, false)
		case l.lo > r.hi:
			return zBool(false, true)
		}
	} else {
		switch {
		case l.hi < r.lo:
			return zBool(true, false)
		case l.lo >= r.hi:
			return zBool(false, true)
		}
	}
	return zBool(true, true)
}

// arith finalizes an arithmetic result interval. Exact-integer inputs stay
// exact (zNum rejects magnitudes that could overflow or round); anything
// involving floats gets widened two ulps per bound so the interval's own
// rounding can never exclude a value the kernel computes.
func arith(lo, hi float64, l, r zval) zval {
	exact := l.exactInt && r.exactInt
	if !exact {
		lo = math.Nextafter(math.Nextafter(lo, math.Inf(-1)), math.Inf(-1))
		hi = math.Nextafter(math.Nextafter(hi, math.Inf(1)), math.Inf(1))
	}
	return zNum(lo, hi, exact)
}

func min4(a, b, c, d float64) float64 { return math.Min(math.Min(a, b), math.Min(c, d)) }
func max4(a, b, c, d float64) float64 { return math.Max(math.Max(a, b), math.Max(c, d)) }

package expr

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Special values the comparison kernels must order exactly as
// relation.Value.Compare does.
var (
	specialInts   = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 3, 1<<53 + 1}
	specialFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 3, -1.5, 1 << 53}
)

// vecFixture builds a mixed-kind schema, row-major tuples, and the same
// data as dense column vectors. Columns a, b, x, y, s hold ordinary values;
// i and f draw from specialInts and specialFloats (MinInt64, 2⁵³+1, NaN,
// ±0, ±Inf), and d is a dictionary-encoded string column.
func vecFixture(t testing.TB, rows int) (*relation.Schema, []relation.Tuple, []Vec) {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "x", Kind: relation.KindFloat},
		relation.Column{Name: "y", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "d", Kind: relation.KindString},
	)
	rng := stats.NewRNG(11)
	special := stats.NewRNG(12)
	words := []string{"ash", "birch", "cedar", "oak"}
	tuples := make([]relation.Tuple, rows)
	cols := []Vec{
		{Kind: relation.KindInt, I: make([]int64, rows)},
		{Kind: relation.KindInt, I: make([]int64, rows)},
		{Kind: relation.KindFloat, F: make([]float64, rows)},
		{Kind: relation.KindFloat, F: make([]float64, rows)},
		{Kind: relation.KindString, S: make([]string, rows)},
		{Kind: relation.KindInt, I: make([]int64, rows)},
		{Kind: relation.KindFloat, F: make([]float64, rows)},
		{Kind: relation.KindString, S: make([]string, rows)},
	}
	for r := 0; r < rows; r++ {
		a := int64(rng.Intn(20) - 10)
		b := int64(rng.Intn(5) + 1)
		x := rng.Float64()*200 - 100
		y := rng.Float64() * 10
		s := words[rng.Intn(len(words))]
		i := specialInts[special.Intn(len(specialInts))]
		f := specialFloats[special.Intn(len(specialFloats))]
		d := words[special.Intn(len(words))]
		tuples[r] = relation.Tuple{
			relation.Int(a), relation.Int(b), relation.Float(x), relation.Float(y), relation.String_(s),
			relation.Int(i), relation.Float(f), relation.String_(d),
		}
		cols[0].I[r], cols[1].I[r], cols[2].F[r], cols[3].F[r], cols[4].S[r] = a, b, x, y, s
		cols[5].I[r], cols[6].F[r], cols[7].S[r] = i, f, d
	}
	dr := relation.MustNew("d", relation.MustSchema(relation.Column{Name: "d", Kind: relation.KindString}))
	for _, s := range cols[7].S {
		dr.MustAppend(relation.String_(s))
	}
	d := dr.Snapshot().Cols[0]
	cols[7].Codes, cols[7].Dict = d.Codes, d.Dict
	return schema, tuples, cols
}

// sameValue is bit identity, except that any two NaNs agree.
func sameValue(a, b relation.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() != relation.KindFloat {
		return a == b
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// scalarKeeps is the oracle for Filter: the selected rows whose scalar
// Compile result is truthy, in order.
func scalarKeeps(t testing.TB, e Expr, schema *relation.Schema, tuples []relation.Tuple, sel []int32) []int32 {
	t.Helper()
	scalar, err := Compile(e, schema)
	if err != nil {
		t.Fatalf("%s: scalar compile: %v", e, err)
	}
	var keep []int32
	for _, i := range sel {
		v, err := scalar(tuples[i])
		if err != nil {
			t.Fatalf("%s row %d: scalar eval: %v", e, i, err)
		}
		if v.Truthy() {
			keep = append(keep, i)
		}
	}
	return keep
}

// checkFilter runs Filter over a copy of sel and FilterRange over [lo, hi)
// (appending after a sentinel prefix). Both must fail exactly when EvalBind
// over the same rows fails, with its message; otherwise it returns Filter's
// kept rows, after checking FilterRange kept exactly the range's rows that
// Filter keeps.
func checkFilter(t testing.TB, vc *VecCompiled, e Expr, cols, binds []Vec, sel []int32, lo, hi int) ([]int32, error) {
	t.Helper()
	_, evalErr := vc.EvalBind(cols, binds, sel)
	kept, err := vc.Filter(cols, binds, append([]int32(nil), sel...))
	if msg(err) != msg(evalErr) {
		t.Fatalf("%s: Filter error %q, EvalBind error %q", e, msg(err), msg(evalErr))
	}
	span := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		span = append(span, int32(i))
	}
	_, spanErr := vc.EvalBind(cols, binds, span)
	got, rerr := vc.FilterRange(cols, binds, lo, hi, []int32{-7})
	if msg(rerr) != msg(spanErr) {
		t.Fatalf("%s: FilterRange error %q, EvalBind error %q", e, msg(rerr), msg(spanErr))
	}
	if rerr == nil {
		want, _ := vc.Filter(cols, binds, span)
		if len(got) == 0 || got[0] != -7 || !slices.Equal(got[1:], want) {
			t.Fatalf("%s: FilterRange [%d,%d) kept %v, Filter kept %v", e, lo, hi, got, want)
		}
	}
	return kept, err
}

func msg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestVecMatchesScalar: for a broad expression suite, the vectorized path
// must produce bit-identical values and the same result kind as the
// scalar compiled path, over a strided selection.
func TestVecMatchesScalar(t *testing.T) {
	schema, tuples, cols := vecFixture(t, 500)
	exprs := []Expr{
		Col("a"),
		Col("x"),
		Col("s"),
		Int(7),
		Float(2.5),
		Str("oak"),
		Add(Col("a"), Col("b")),
		Sub(Col("a"), Int(3)),
		Mul(Col("a"), Col("b")),
		Div(Col("x"), Col("b")),
		Div(Col("a"), Col("b")), // int/int division yields float
		Mul(Col("x"), Sub(Float(1), Col("y"))),
		Add(Mul(Col("a"), Int(2)), Div(Col("x"), Float(4))),
		Eq(Col("a"), Col("b")),
		Bin(OpNe, Col("a"), Int(0)),
		Lt(Col("x"), Col("y")),
		Bin(OpLe, Col("a"), Float(0.5)), // mixed int/float comparison
		Gt(Col("x"), Float(0)),
		Bin(OpGe, Col("b"), Col("a")),
		Eq(Col("s"), Str("cedar")),
		Lt(Col("s"), Str("oak")),
		And(Gt(Col("x"), Float(0)), Lt(Col("a"), Int(5))),
		Or(Eq(Col("s"), Str("ash")), Gt(Col("y"), Float(5))),
		Not{X: Gt(Col("a"), Int(0))},
		And(Int(1), Gt(Col("x"), Float(-1e18))), // constant operand
		Mul(Int(3), Int(4)),                     // fully constant
		// Special values: NaN, ±0, ±Inf, MinInt64, 2⁵³+1 against every
		// comparison, in both operand orders and across int/float.
		Col("f"),
		Col("i"),
		Lt(Col("f"), Float(3)),
		Bin(OpLe, Col("f"), Int(0)),
		Gt(Col("f"), Float(math.Copysign(0, -1))),
		Bin(OpGe, Col("f"), Float(math.Inf(-1))),
		Eq(Col("f"), Float(0)),
		Bin(OpNe, Col("f"), Float(math.Inf(1))),
		Lt(Col("f"), Float(math.NaN())),
		Eq(Col("f"), Float(math.NaN())),
		Bin(OpGe, Float(math.NaN()), Col("f")),
		Bin(OpLe, Float(3), Col("f")),
		Gt(Int(0), Col("i")),
		Eq(Col("i"), Int(math.MinInt64)),
		Bin(OpLe, Col("i"), Float(-9.2e18)),
		Bin(OpGe, Col("i"), Float(1<<53)),
		Eq(Col("i"), Int(1<<53)),
		Lt(Col("f"), Col("x")),
		Eq(Col("f"), Col("f")),
		Bin(OpNe, Col("f"), Col("f")),
		Bin(OpGe, Col("i"), Col("f")),
		Lt(Col("f"), Col("i")),
		Bin(OpLe, Col("i"), Col("a")),
		Gt(Col("f"), Col("y")),
		Eq(Col("d"), Str("oak")),
		Lt(Col("d"), Col("s")),
		Col("d"),
		Not{X: Col("f")},
		And(Col("f"), Col("i")),
		Or(Col("f"), Lt(Col("i"), Int(0))),
		Add(Col("f"), Col("i")),
		Gt(Mul(Col("f"), Int(2)), Col("x")),
		Not{X: Str("oak")},
		Or(Int(0), Float(math.NaN())),
	}
	// Strided selection exercises gathers at non-trivial offsets.
	var sel []int32
	for i := 0; i < len(tuples); i += 3 {
		sel = append(sel, int32(i))
	}
	for _, e := range exprs {
		scalar, err := Compile(e, schema)
		if err != nil {
			t.Fatalf("%s: scalar compile: %v", e, err)
		}
		vc, err := CompileVec(e, schema)
		if err != nil {
			t.Fatalf("%s: vec compile: %v", e, err)
		}
		out, err := vc.Eval(cols, sel)
		if err != nil {
			t.Fatalf("%s: vec eval: %v", e, err)
		}
		if out.Len() != len(sel) {
			t.Fatalf("%s: %d results for %d selected rows", e, out.Len(), len(sel))
		}
		for k, i := range sel {
			want, err := scalar(tuples[i])
			if err != nil {
				t.Fatalf("%s row %d: scalar eval: %v", e, i, err)
			}
			got := out.ValueAt(k)
			if !sameValue(got, want) {
				t.Fatalf("%s row %d: vec %v (%s) vs scalar %v (%s)",
					e, i, got, got.Kind(), want, want.Kind())
			}
			if want.Kind() != vc.Kind() {
				t.Fatalf("%s: static kind %s but scalar produced %s", e, vc.Kind(), want.Kind())
			}
		}
		// Filter keeps exactly the rows whose scalar result is truthy.
		kept, err := checkFilter(t, vc, e, cols, nil, sel, 7, 301)
		if err != nil {
			t.Fatalf("%s: filter: %v", e, err)
		}
		if want := scalarKeeps(t, e, schema, tuples, sel); !slices.Equal(kept, want) {
			t.Fatalf("%s: Filter kept %v, scalar keeps %v", e, kept, want)
		}
	}
}

// TestVecErrors: the vectorized path must fail exactly where the scalar
// path fails — and stay silent on empty selections, where the scalar path
// never evaluates a row.
func TestVecErrors(t *testing.T) {
	schema, tuples, cols := vecFixture(t, 50)

	if _, err := CompileVec(Col("missing"), schema); err == nil ||
		!strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("unknown column: %v", err)
	}

	bad := []Expr{
		Add(Col("s"), Int(1)),                                // string arithmetic
		Eq(Col("s"), Col("a")),                               // string/number comparison
		Div(Col("x"), Sub(Col("b"), Col("b"))),               // division by zero
		Lt(Col("d"), Float(1)),                               // dictionary string/number comparison
		Bin(OpGe, Int(2), Col("s")),                          // number/string, constant on the left
		Gt(Div(Col("f"), Sub(Col("a"), Col("a"))), Float(0)), // division by zero in an operand
		Lt(Col("x"), Div(Int(1), Int(0))),                    // constant division by zero
		Eq(Str("oak"), Int(1)),                               // constant string/number comparison
		Not{X: Div(Col("i"), Int(0))},                        // division by zero under NOT
		And(Gt(Col("x"), Float(0)), Eq(Col("s"), Col("f"))),  // error in one conjunct
	}
	sel := []int32{0, 1, 2}
	for _, e := range bad {
		scalar, err := Compile(e, schema)
		if err != nil {
			t.Fatalf("%s: scalar compile: %v", e, err)
		}
		if _, serr := scalar(tuples[0]); serr == nil {
			t.Fatalf("%s: scalar path accepted", e)
		}
		vc, err := CompileVec(e, schema)
		if err != nil {
			t.Fatalf("%s: vec compile: %v", e, err)
		}
		if _, verr := vc.Eval(cols, sel); verr == nil {
			t.Fatalf("%s: vec path accepted", e)
		}
		if _, ferr := checkFilter(t, vc, e, cols, nil, sel, 3, 9); ferr == nil {
			t.Fatalf("%s: Filter accepted", e)
		}
		// Zero selected rows: no evaluation, no error.
		if out, verr := vc.Eval(cols, nil); verr != nil || out.Len() != 0 {
			t.Fatalf("%s: empty selection: len=%d err=%v", e, out.Len(), verr)
		}
		if kept, ferr := checkFilter(t, vc, e, cols, nil, nil, 4, 4); ferr != nil || len(kept) != 0 {
			t.Fatalf("%s: empty Filter: kept %v err=%v", e, kept, ferr)
		}
	}

	// A binding whose kind differs from the compiled one fails Filter as it
	// fails EvalBind — on an empty selection too.
	vc, err := CompileVecBind(Lt(Col("x"), Param(0)), schema, []relation.Kind{relation.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	binds := []Vec{ConstVec(relation.Int(3))}
	for _, sel := range [][]int32{{0, 1, 2}, nil} {
		if _, ferr := checkFilter(t, vc, Lt(Col("x"), Param(0)), cols, binds, sel, 0, len(sel)); ferr == nil ||
			!strings.Contains(ferr.Error(), "bound as int, compiled as float") {
			t.Fatalf("kind mismatch over %d rows: %v", len(sel), ferr)
		}
	}
}

// TestVecConstBroadcast: Const column entries (the θ-join's pinned left
// row) must broadcast against dense columns.
func TestVecConstBroadcast(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "l", Kind: relation.KindFloat},
		relation.Column{Name: "r", Kind: relation.KindFloat},
	)
	cols := []Vec{
		ConstVec(relation.Float(5)),
		{Kind: relation.KindFloat, F: []float64{1, 5, 9}},
	}
	vc, err := CompileVec(Lt(Col("l"), Col("r")), schema)
	if err != nil {
		t.Fatal(err)
	}
	out, err := vc.Eval(cols, []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 1}
	for i, w := range want {
		if out.I[i] != w {
			t.Fatalf("broadcast compare row %d: got %d want %d", i, out.I[i], w)
		}
	}
}

// filterLeaves are the generator's constants and parameter values: every
// special value plus ordinary numbers and strings.
var filterLeaves = func() []relation.Value {
	var out []relation.Value
	for _, i := range specialInts {
		out = append(out, relation.Int(i))
	}
	for _, f := range specialFloats {
		out = append(out, relation.Float(f))
	}
	return append(out, relation.Int(-4), relation.Float(0.5), relation.String_("cedar"), relation.String_(""))
}()

var filterCols = []string{"a", "b", "x", "y", "s", "i", "f", "d"}

var filterOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}

// genLeaf draws a column, a constant, or a placeholder whose value it
// appends to params.
func genLeaf(rng *stats.RNG, params *[]relation.Value) Expr {
	switch rng.Intn(4) {
	case 0, 1:
		return Col(filterCols[rng.Intn(len(filterCols))])
	case 2:
		return Const{Value: filterLeaves[rng.Intn(len(filterLeaves))]}
	default:
		*params = append(*params, filterLeaves[rng.Intn(len(filterLeaves))])
		return Param(len(*params) - 1)
	}
}

// genTree draws an expression of at most the given depth over every
// operator and NOT.
func genTree(rng *stats.RNG, depth int, params *[]relation.Value) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return genLeaf(rng, params)
	}
	if rng.Intn(6) == 0 {
		return Not{X: genTree(rng, depth-1, params)}
	}
	l := genTree(rng, depth-1, params)
	return Bin(filterOps[rng.Intn(len(filterOps))], l, genTree(rng, depth-1, params))
}

// genFilterCase draws one Filter input over a fresh fixture: half the
// predicates are comparisons of two leaves (the direct kernel's shape when
// one leaf is constant), the rest random trees. Some columns become Const broadcasts (every tuple
// then holds the broadcast value), some placeholders are declared with
// the wrong kind, and the selection is an ascending random subset, empty
// at times.
func genFilterCase(t testing.TB, seed uint64) (e Expr, schema *relation.Schema, tuples []relation.Tuple, cols []Vec, params []relation.Value, kinds []relation.Kind, sel []int32) {
	rng := stats.NewRNG(seed)
	rows := 1 + rng.Intn(64)
	schema, tuples, cols = vecFixture(t, rows)
	for j := range cols {
		if rng.Intn(6) == 0 {
			v := tuples[rng.Intn(rows)][j]
			cols[j] = ConstVec(v)
			for r := range tuples {
				tuples[r] = append(relation.Tuple(nil), tuples[r]...)
				tuples[r][j] = v
			}
		}
	}
	if rng.Intn(2) == 0 {
		e = Bin(filterOps[4+rng.Intn(6)], genLeaf(rng, &params), genLeaf(rng, &params))
	} else {
		e = genTree(rng, 3, &params)
	}
	for _, p := range params {
		kinds = append(kinds, p.Kind())
	}
	if len(kinds) > 0 && rng.Intn(8) == 0 {
		k := rng.Intn(len(kinds))
		kinds[k] = (kinds[k] + 1) % 3
	}
	density := rng.Float64()
	for i := 0; i < rows; i++ {
		if rng.Float64() < density {
			sel = append(sel, int32(i))
		}
	}
	return e, schema, tuples, cols, params, kinds, sel
}

// filterMatchesScalar checks one generated case: Filter and FilterRange
// fail exactly when EvalBind fails, with its message; a failure that is
// not a binding-kind mismatch is one the scalar path also hits on some
// selected row; and on success Filter keeps exactly the rows whose scalar
// result (placeholders bound as literals) is truthy.
func filterMatchesScalar(t testing.TB, seed uint64) {
	e, schema, tuples, cols, params, kinds, sel := genFilterCase(t, seed)
	vc, err := CompileVecBind(e, schema, kinds)
	if err != nil {
		t.Fatalf("seed %d: %s: compile: %v", seed, e, err)
	}
	binds := make([]Vec, len(params))
	mismatch := false
	for i, p := range params {
		binds[i] = ConstVec(p)
		mismatch = mismatch || p.Kind() != kinds[i]
	}
	lo := len(tuples) / 3
	kept, ferr := checkFilter(t, vc, e, cols, binds, sel, lo, len(tuples))
	if mismatch {
		return
	}
	bound, err := BindParams(e, params)
	if err != nil {
		t.Fatalf("seed %d: %s: bind: %v", seed, e, err)
	}
	if ferr != nil {
		scalar, err := Compile(bound, schema)
		if err != nil {
			t.Fatalf("seed %d: %s: scalar compile: %v", seed, e, err)
		}
		for _, i := range sel {
			if _, err := scalar(tuples[i]); err != nil {
				return
			}
		}
		t.Fatalf("seed %d: %s: Filter failed (%v) where the scalar path accepts every row", seed, e, ferr)
	}
	if want := scalarKeeps(t, bound, schema, tuples, sel); !slices.Equal(kept, want) {
		t.Fatalf("seed %d: %s over %v: Filter kept %v, scalar keeps %v", seed, e, sel, kept, want)
	}
}

// TestFilterGenerated runs the Filter ≡ scalar check over a fixed range of
// generated cases.
func TestFilterGenerated(t *testing.T) {
	for seed := uint64(1); seed <= 2000; seed++ {
		filterMatchesScalar(t, seed)
	}
}

func FuzzFilterMatchesScalar(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { filterMatchesScalar(t, seed) })
}

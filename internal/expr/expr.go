// Package expr implements the scalar expression engine used by selection
// predicates, join conditions and aggregate arguments: column references,
// literals, arithmetic, comparisons and boolean connectives over
// relation.Value tuples.
//
// Expressions are built as an AST and then compiled against a column schema
// into a closure; compilation resolves column names to positions once so
// evaluation is allocation-free per row. The closure form is the semantics
// reference; queries run the vectorized form (vector.go), which evaluates
// whole selections of rows per call and, for predicates, narrows a
// selection vector in place (VecCompiled.Filter) instead of producing a
// truth vector.
package expr

import (
	"fmt"
	"strings"

	"github.com/sampling-algebra/gus/internal/relation"
)

// Op enumerates binary operators.
type Op int

// Binary operators. Comparisons yield relation.Bool values.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsComparison reports whether the operator is a comparison.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Expr is a node of the expression AST.
type Expr interface {
	fmt.Stringer
	// expr marks implementations; the set of node types is closed.
	expr()
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// Const is a literal value.
type Const struct{ Value relation.Value }

// ParamRef is a positional prepared-statement placeholder (`?` / `?N` in
// SQL). Index is 0-based. A ParamRef never evaluates by itself: its value
// is injected at execution time — as a broadcast constant through the
// vector kernels' bind channel — without recompiling the surrounding
// expression.
type ParamRef struct{ Index int }

// Binary applies Op to two sub-expressions.
type Binary struct {
	Op   Op
	L, R Expr
}

// Not negates a boolean sub-expression.
type Not struct{ X Expr }

func (ColRef) expr()   {}
func (Const) expr()    {}
func (Binary) expr()   {}
func (Not) expr()      {}
func (ParamRef) expr() {}

// String renders the expression in SQL-ish syntax.
func (c ColRef) String() string { return c.Name }

// String renders the literal; strings are single-quoted.
func (c Const) String() string {
	if c.Value.Kind() == relation.KindString {
		return "'" + c.Value.AsString() + "'"
	}
	return c.Value.AsString()
}

// String renders the operator application, fully parenthesized.
func (b Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// String renders the negation.
func (n Not) String() string { return "(NOT " + n.X.String() + ")" }

// String renders the placeholder in its explicit 1-based SQL form, which
// re-parses to the same index.
func (p ParamRef) String() string { return fmt.Sprintf("?%d", p.Index+1) }

// Convenience constructors.

// Col references a column.
func Col(name string) Expr { return ColRef{Name: name} }

// Param references the i-th (0-based) positional placeholder.
func Param(i int) Expr { return ParamRef{Index: i} }

// Int is an integer literal.
func Int(v int64) Expr { return Const{Value: relation.Int(v)} }

// Float is a float literal.
func Float(v float64) Expr { return Const{Value: relation.Float(v)} }

// Str is a string literal.
func Str(v string) Expr { return Const{Value: relation.String_(v)} }

// Bin applies a binary operator.
func Bin(op Op, l, r Expr) Expr { return Binary{Op: op, L: l, R: r} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin(OpAdd, l, r) }

// Sub returns l − r.
func Sub(l, r Expr) Expr { return Bin(OpSub, l, r) }

// Mul returns l · r.
func Mul(l, r Expr) Expr { return Bin(OpMul, l, r) }

// Div returns l / r.
func Div(l, r Expr) Expr { return Bin(OpDiv, l, r) }

// Eq returns l = r.
func Eq(l, r Expr) Expr { return Bin(OpEq, l, r) }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return Bin(OpLt, l, r) }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return Bin(OpGt, l, r) }

// And returns l AND r.
func And(l, r Expr) Expr { return Bin(OpAnd, l, r) }

// Or returns l OR r.
func Or(l, r Expr) Expr { return Bin(OpOr, l, r) }

// Compiled is an expression evaluator bound to a specific column schema.
type Compiled func(row relation.Tuple) (relation.Value, error)

// Compile resolves column references against schema and returns an
// evaluator. Unknown columns are compile-time errors, and so are
// placeholders — an expression containing ParamRefs must have its
// parameters substituted via BindParams first.
func Compile(e Expr, schema *relation.Schema) (Compiled, error) {
	switch n := e.(type) {
	case ParamRef:
		return nil, fmt.Errorf("expr: parameter ?%d is unbound (0 bound)", n.Index+1)
	case ColRef:
		idx, ok := schema.Index(n.Name)
		if !ok {
			return nil, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return func(row relation.Tuple) (relation.Value, error) { return row[idx], nil }, nil
	case Const:
		v := n.Value
		return func(relation.Tuple) (relation.Value, error) { return v, nil }, nil
	case Not:
		x, err := Compile(n.X, schema)
		if err != nil {
			return nil, err
		}
		return func(row relation.Tuple) (relation.Value, error) {
			v, err := x(row)
			if err != nil {
				return relation.Value{}, err
			}
			return relation.Bool(!v.Truthy()), nil
		}, nil
	case Binary:
		l, err := Compile(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.R, schema)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(row relation.Tuple) (relation.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relation.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return relation.Value{}, err
			}
			return apply(op, lv, rv)
		}, nil
	default:
		return nil, fmt.Errorf("expr: unsupported node %T", e)
	}
}

func apply(op Op, l, r relation.Value) (relation.Value, error) {
	switch op {
	case OpAnd:
		return relation.Bool(l.Truthy() && r.Truthy()), nil
	case OpOr:
		return relation.Bool(l.Truthy() || r.Truthy()), nil
	}
	if op.IsComparison() {
		c, err := l.Compare(r)
		if err != nil {
			return relation.Value{}, fmt.Errorf("expr: %v", err)
		}
		switch op {
		case OpEq:
			return relation.Bool(c == 0), nil
		case OpNe:
			return relation.Bool(c != 0), nil
		case OpLt:
			return relation.Bool(c < 0), nil
		case OpLe:
			return relation.Bool(c <= 0), nil
		case OpGt:
			return relation.Bool(c > 0), nil
		case OpGe:
			return relation.Bool(c >= 0), nil
		}
	}
	// Arithmetic.
	if !l.IsNumeric() || !r.IsNumeric() {
		return relation.Value{}, fmt.Errorf("expr: %s needs numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	if l.Kind() == relation.KindInt && r.Kind() == relation.KindInt && op != OpDiv {
		a, _ := l.AsInt()
		b, _ := r.AsInt()
		switch op {
		case OpAdd:
			return relation.Int(a + b), nil
		case OpSub:
			return relation.Int(a - b), nil
		case OpMul:
			return relation.Int(a * b), nil
		}
	}
	a, _ := l.AsFloat()
	b, _ := r.AsFloat()
	switch op {
	case OpAdd:
		return relation.Float(a + b), nil
	case OpSub:
		return relation.Float(a - b), nil
	case OpMul:
		return relation.Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return relation.Value{}, fmt.Errorf("expr: division by zero")
		}
		return relation.Float(a / b), nil
	}
	return relation.Value{}, fmt.Errorf("expr: unhandled operator %s", op)
}

// Columns returns the distinct column names referenced by e, in first-use
// order. Planners use it to decide which relation a predicate touches.
func Columns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case ColRef:
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case Binary:
			walk(n.L)
			walk(n.R)
		case Not:
			walk(n.X)
		}
	}
	walk(e)
	return out
}

// Conjuncts splits a predicate on top-level ANDs: (a AND (b AND c)) →
// [a b c]. Planners use it to separate join conditions from selections.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll re-joins predicates with AND; nil for an empty list.
func AndAll(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = And(out, e)
	}
	return out
}

// EquiJoinCols recognizes a predicate of the form colA = colB and returns
// the two column names. ok is false for any other shape.
func EquiJoinCols(e Expr) (left, right string, ok bool) {
	b, isBin := e.(Binary)
	if !isBin || b.Op != OpEq {
		return "", "", false
	}
	lc, lok := b.L.(ColRef)
	rc, rok := b.R.(ColRef)
	if !lok || !rok || lc.Name == rc.Name {
		return "", "", false
	}
	return lc.Name, rc.Name, true
}

// WalkParams calls fn for every ParamRef index in e (with repeats).
func WalkParams(e Expr, fn func(idx int)) {
	switch n := e.(type) {
	case ParamRef:
		fn(n.Index)
	case Binary:
		WalkParams(n.L, fn)
		WalkParams(n.R, fn)
	case Not:
		WalkParams(n.X, fn)
	}
}

// NumParams returns 1 + the largest placeholder index in e (0 when e holds
// no placeholders).
func NumParams(e Expr) int {
	max := 0
	WalkParams(e, func(i int) {
		if i+1 > max {
			max = i + 1
		}
	})
	return max
}

// BindParams returns e with every ParamRef replaced by the corresponding
// Const — the literal the caller would have written in its place. Subtrees
// without placeholders are returned as-is (no copy), so a parameter-free
// expression binds to itself.
func BindParams(e Expr, params []relation.Value) (Expr, error) {
	switch n := e.(type) {
	case ParamRef:
		if n.Index < 0 || n.Index >= len(params) {
			return nil, fmt.Errorf("expr: parameter ?%d is unbound (%d bound)", n.Index+1, len(params))
		}
		return Const{Value: params[n.Index]}, nil
	case Binary:
		l, err := BindParams(n.L, params)
		if err != nil {
			return nil, err
		}
		r, err := BindParams(n.R, params)
		if err != nil {
			return nil, err
		}
		if l == n.L && r == n.R {
			return e, nil
		}
		return Binary{Op: n.Op, L: l, R: r}, nil
	case Not:
		x, err := BindParams(n.X, params)
		if err != nil {
			return nil, err
		}
		if x == n.X {
			return e, nil
		}
		return Not{X: x}, nil
	default:
		return e, nil
	}
}

// FormatList renders expressions comma-separated, for diagnostics.
func FormatList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// The determinism analyzer. The engine's core guarantee — seeded results
// are bit-identical at any worker count, and will stay bit-identical
// across shards once scatter/gather lands — survives only if (a) no map
// iteration order ever feeds a result, and (b) every random draw flows
// through the per-partition sub-seeded streams in internal/stats.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism flags map iterations whose order can leak into results and
// any use of ambient randomness or wall clock outside the whitelisted
// packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: `enforce order- and clock-determinism on the engine core

Flags:
  - range over a map, unless the body is provably order-insensitive
    (pure counting, set insert/delete keyed by the iteration key), the
    loop only collects keys/elements into a slice that is subsequently
    sorted in the same function, or the loop carries //gus:nondet-ok.
  - importing math/rand or math/rand/v2 anywhere outside the whitelisted
    packages: sampling randomness must flow through the sub-seeded
    streams in internal/stats.
  - calling time.Now/time.Since/time.Until outside the whitelisted
    packages (stats, obs, audit, cmd/*, examples, the module root API
    layer, tests): wall clock on the estimation path breaks replay.`,
	Run: runDeterminism,
}

// randWhitelisted reports whether ambient clock/randomness is allowed in
// this package: the seeded-RNG home itself, observability and audit
// (which exist to measure wall time), binaries and examples, and the
// module-root API layer (which observes query latency).
func randWhitelisted(pass *Pass) bool {
	switch pass.PkgTail() {
	case "stats", "obs", "audit":
		return true
	}
	return pass.PkgHasSegment("cmd") || pass.PkgHasSegment("examples") || pass.IsAPILayer()
}

// rangeScoped reports whether the map-iteration rule applies: everywhere
// in the module except examples (cmd is included — gusserve renders
// user-visible JSON).
func rangeScoped(pass *Pass) bool {
	return !pass.PkgHasSegment("examples")
}

func runDeterminism(pass *Pass) error {
	checkRange := rangeScoped(pass)
	checkRand := !randWhitelisted(pass)
	if !checkRange && !checkRand {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		var fnStack []ast.Node // enclosing FuncDecl/FuncLit chain
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case nil:
				return false
			case *ast.FuncDecl, *ast.FuncLit:
				fnStack = append(fnStack, n)
				// Popping the stack on exit needs post-order hooks that
				// ast.Inspect lacks; instead the lookup below scans for the
				// innermost function whose extent covers the node.
			case *ast.ImportSpec:
				if checkRand {
					checkRandImport(pass, n)
				}
			case *ast.CallExpr:
				if checkRand {
					checkClockCall(pass, n)
				}
			case *ast.RangeStmt:
				if checkRange {
					checkMapRange(pass, n, enclosingFunc(fnStack, n))
				}
			}
			return true
		})
	}
	return nil
}

// enclosingFunc returns the body of the innermost pushed function whose
// extent contains n.
func enclosingFunc(stack []ast.Node, n ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			if fn.Body != nil && fn.Body.Pos() <= n.Pos() && n.End() <= fn.Body.End() {
				return fn.Body
			}
		case *ast.FuncLit:
			if fn.Body != nil && fn.Body.Pos() <= n.Pos() && n.End() <= fn.Body.End() {
				return fn.Body
			}
		}
	}
	return nil
}

func checkRandImport(pass *Pass, spec *ast.ImportSpec) {
	p := spec.Path.Value
	if p != `"math/rand"` && p != `"math/rand/v2"` {
		return
	}
	if pass.Annotated(spec.Pos(), "nondet-ok") {
		return
	}
	pass.Reportf(spec.Pos(), "import of %s: sampling randomness must flow through the sub-seeded streams in internal/stats (//gus:nondet-ok <reason> to override)", p)
}

// checkClockCall flags time.Now/Since/Until (and any math/rand call that
// slipped past the import check via a dot import).
func checkClockCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
		default:
			return
		}
	case "math/rand", "math/rand/v2":
		// covered by the import check, but calls through a renamed import
		// still deserve a precise position
	default:
		return
	}
	if pass.Annotated(call.Pos(), "nondet-ok") {
		return
	}
	pass.Reportf(call.Pos(), "call to %s.%s in a deterministic package: results must not depend on the wall clock or ambient randomness (//gus:nondet-ok <reason> to override)", obj.Pkg().Path(), obj.Name())
}

// checkMapRange flags `for ... := range m` where m is a map, unless the
// body cannot leak iteration order or the collected elements are sorted
// before use.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Annotated(rs.Pos(), "nondet-ok") {
		return
	}
	key := identObj(pass, rs.Key)
	val := identObj(pass, rs.Value)
	if orderInsensitiveBlock(pass, rs.Body, key, val) {
		return
	}
	if collectThenSort(pass, rs, fnBody) {
		return
	}
	pass.Reportf(rs.Pos(), "map iteration order can reach results here: sort the keys first, make the body order-insensitive, or annotate //gus:nondet-ok <reason>")
}

func identObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

// orderInsensitiveBlock reports whether every statement in the loop body
// produces the same final state whatever order the map yields its
// entries. Recognized shapes:
//
//	n++ / n-- / n += x          integer accumulation (float addition is
//	                            order-sensitive in IEEE semantics)
//	m2[k] = v                   store keyed by the iteration key (each key
//	                            visited exactly once)
//	delete(m2, anything)        set removal is idempotent
//	done = true                 constant stores are idempotent
//	if cond { ... }             both arms order-insensitive
//	return <consts>             early exit whose values don't mention k/v
//	continue, empty statements
func orderInsensitiveBlock(pass *Pass, body *ast.BlockStmt, key, val types.Object) bool {
	for _, s := range body.List {
		if !orderInsensitiveStmt(pass, s, key, val) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, s ast.Stmt, key, val types.Object) bool {
	switch s := s.(type) {
	case *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		// continue skips an entry regardless of order; break makes "which
		// entries ran" order-dependent.
		return s.Tok == token.CONTINUE
	case *ast.IncDecStmt:
		return isIntegerExpr(pass, s.X)
	case *ast.AssignStmt:
		return orderInsensitiveAssign(pass, s, key)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if isMaxMinTracking(s) {
			return true
		}
		if s.Init != nil && !orderInsensitiveStmt(pass, s.Init, key, val) {
			return false
		}
		if !orderInsensitiveBlock(pass, s.Body, key, val) {
			return false
		}
		if s.Else != nil {
			return orderInsensitiveStmt(pass, s.Else, key, val)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitiveBlock(pass, s, key, val)
	case *ast.ReturnStmt:
		// Early exit is order-insensitive when any qualifying entry yields
		// the same outcome: the returned values must not mention the
		// iteration variables.
		for _, r := range s.Results {
			if mentionsObj(pass, r, key) || mentionsObj(pass, r, val) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// orderInsensitiveAssign allows integer compound accumulation, stores
// into a map keyed by the iteration key, and constant stores.
func orderInsensitiveAssign(pass *Pass, a *ast.AssignStmt, key types.Object) bool {
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
		for _, l := range a.Lhs {
			if !isIntegerExpr(pass, l) {
				return false
			}
		}
		return true
	case token.ASSIGN, token.DEFINE:
		for i, l := range a.Lhs {
			if ix, ok := l.(*ast.IndexExpr); ok {
				// m2[k] = ...: each key is visited exactly once, so the
				// store set is order-independent.
				if t := pass.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && key != nil && identObj(pass, ix.Index) == key {
						continue
					}
				}
				return false
			}
			// done = true (idempotent constant store)
			if _, isIdent := l.(*ast.Ident); isIdent && i < len(a.Rhs) {
				if tv, ok := pass.TypesInfo.Types[a.Rhs[i]]; ok && tv.Value != nil {
					continue
				}
			}
			return false
		}
		return true
	}
	return false
}

// isMaxMinTracking recognizes the running-extremum idiom, which is
// order-insensitive (max/min are commutative and associative; NaN never
// compares greater, so it cannot win either way):
//
//	if x > best { best = x }
//	if d := f(v); d > first { first = d }
//	if !ok && v > second { second = v }   (extra &&-conjuncts allowed)
//	if r < s.MinRate { s.MinRate = r }
//
// The body must be exactly `A = X` and the condition must contain the
// conjunct `X > A` (or `A < X`, or the >=/<= forms), with A and X
// compared by printed form.
func isMaxMinTracking(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	as, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	a, x := exprString(as.Lhs[0]), exprString(as.Rhs[0])
	return condHasExtremum(s.Cond, a, x)
}

// condHasExtremum looks for `X > A`-shaped conjuncts of cond.
func condHasExtremum(cond ast.Expr, a, x string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condHasExtremum(c.X, a, x)
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condHasExtremum(c.X, a, x) || condHasExtremum(c.Y, a, x)
		}
		switch c.Op {
		case token.GTR, token.GEQ, token.LSS, token.LEQ:
			// Either operand order: `x > a` / `a < x` track the max,
			// `x < a` / `a > x` the min — all order-insensitive.
			l, r := exprString(c.X), exprString(c.Y)
			return l == x && r == a || l == a && r == x
		}
	}
	return false
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func mentionsObj(pass *Pass, e ast.Expr, o types.Object) bool {
	if o == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == o {
			found = true
		}
		return !found
	})
	return found
}

// collectThenSort recognizes the canonical sorted-iteration idiom: the
// loop body builds per-entry values using only body-local scratch state
// and appends them into outer slice variables, and each such slice is
// passed to a sort call later in the same function before the loop's
// order can matter.
//
// The body may freely declare and mutate variables whose scope is the
// loop body itself (their final values cannot outlive the iteration);
// writes that escape the body must be appends to a collected-then-sorted
// slice or one of the order-insensitive statement forms. The check is a
// lint heuristic, not a proof: expression-position calls are assumed
// side-effect-free, and a body-local pointer into outer state could
// smuggle a write past it.
func collectThenSort(pass *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if fnBody == nil {
		return false
	}
	key := identObj(pass, rs.Key)
	val := identObj(pass, rs.Value)
	targets := map[types.Object]bool{}
	if !collectsInto(pass, rs.Body, rs.Body, targets, key, val) || len(targets) == 0 {
		return false
	}
	for obj := range targets {
		if !sortedAfter(pass, fnBody, rs.End(), obj) {
			return false
		}
	}
	return true
}

// bodyLocal reports whether obj is declared inside the loop body.
func bodyLocal(obj types.Object, body *ast.BlockStmt) bool {
	return obj != nil && body.Pos() <= obj.Pos() && obj.Pos() <= body.End()
}

// baseObj unwraps selector/index/star/paren chains to the root
// identifier's object, so `info.Columns` and `s.MeanRelErr` resolve to
// info and s.
func baseObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return identObj(pass, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// collectsInto walks a loop body allowing appends to outer slices
// (recorded in targets), writes confined to body-local variables, and
// the order-insensitive statement forms.
func collectsInto(pass *Pass, body *ast.BlockStmt, stmts *ast.BlockStmt, targets map[types.Object]bool, key, val types.Object) bool {
	for _, s := range stmts.List {
		if !collectStmt(pass, body, s, targets, key, val) {
			return false
		}
	}
	return true
}

func collectStmt(pass *Pass, body *ast.BlockStmt, s ast.Stmt, targets map[types.Object]bool, key, val types.Object) bool {
	switch s := s.(type) {
	case *ast.EmptyStmt, *ast.DeclStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IncDecStmt:
		return bodyLocal(baseObj(pass, s.X), body) || isIntegerExpr(pass, s.X)
	case *ast.IfStmt:
		if isMaxMinTracking(s) {
			return true
		}
		if s.Init != nil && !collectStmt(pass, body, s.Init, targets, key, val) {
			return false
		}
		if !collectsInto(pass, body, s.Body, targets, key, val) {
			return false
		}
		if s.Else != nil {
			return collectStmt(pass, body, s.Else, targets, key, val)
		}
		return true
	case *ast.BlockStmt:
		return collectsInto(pass, body, s, targets, key, val)
	case *ast.ForStmt:
		if s.Init != nil && !collectStmt(pass, body, s.Init, targets, key, val) {
			return false
		}
		if s.Post != nil && !collectStmt(pass, body, s.Post, targets, key, val) {
			return false
		}
		return collectsInto(pass, body, s.Body, targets, key, val)
	case *ast.RangeStmt:
		// Nested iteration: a nested map range runs its own checkMapRange;
		// here only the writes matter.
		for _, kv := range []ast.Expr{s.Key, s.Value} {
			if kv == nil {
				continue
			}
			if obj := identObj(pass, kv); obj != nil && !bodyLocal(obj, body) {
				return false
			}
		}
		return collectsInto(pass, body, s.Body, targets, key, val)
	case *ast.SwitchStmt:
		if s.Init != nil && !collectStmt(pass, body, s.Init, targets, key, val) {
			return false
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				return false
			}
			for _, cs := range cc.Body {
				if !collectStmt(pass, body, cs, targets, key, val) {
					return false
				}
			}
		}
		return true
	case *ast.AssignStmt:
		// Appends into outer slices are the collection channel.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
			if obj := identObj(pass, s.Lhs[0]); obj != nil && !bodyLocal(obj, body) {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) >= 1 && identObj(pass, call.Args[0]) == obj {
						targets[obj] = true
						return true
					}
				}
			}
		}
		// Otherwise every written base must be body-local, or the write
		// must be one of the order-insensitive forms.
		allLocal := true
		for _, l := range s.Lhs {
			if !bodyLocal(baseObj(pass, l), body) {
				allLocal = false
			}
		}
		return allLocal || orderInsensitiveAssign(pass, s, key)
	case *ast.ExprStmt:
		return orderInsensitiveStmt(pass, s, key, val)
	default:
		return false
	}
}

// sortedAfter reports whether a sort.* / slices.Sort* call mentioning obj
// appears after pos within the function body.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, a := range call.Args {
			if mentionsObj(pass, a, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

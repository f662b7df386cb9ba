// The poolcontract analyzer. Owned batches and pooled scratch buffers
// follow a strict lifecycle: Release poisons a batch (zero-length
// columns), so a released value must never be touched again on any path;
// and a buffer drawn from a sync.Pool-backed getter must reach a matching
// putter, a Release, or a documented ownership transfer, or the pool
// silently degrades to plain allocation.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

func pathTail(p string) string { return path.Base(p) }

// PoolContract enforces the owned-batch and scratch-pool lifecycles.
var PoolContract = &Analyzer{
	Name: "poolcontract",
	Doc: `enforce the owned-batch pool contract

Use-after-release: after b.Release() (receiver type batch.Batch), any
further use of b in the function is flagged — Release poisons the batch
and recycles its buffers, so later reads see recycled memory. Releases
inside a branch that terminates (returns/panics) do not poison the
fall-through path; `+"`defer b.Release()`"+` is always safe.

Pool leaks: a variable assigned from a same-package pool getter (a
function whose body calls .Get on a sync.Pool or batch.SlicePool) must be mentioned in
at least one sink: a same-package putter call (a function whose body
calls .Put), a Release, a return, a composite literal, a store into a
field/index/slice, an append, a channel send, or capture by a function
literal. A buffer that never reaches any of those leaks from the pool.
//gus:pool-ok <reason> overrides.`,
	Run: runPoolContract,
}

func runPoolContract(pass *Pass) error {
	getters, putters := poolAccessors(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkUseAfterRelease(pass, fn.Body)
			checkPoolLeaks(pass, fn, getters, putters)
		}
	}
	return nil
}

// --- use-after-release ---

// isBatchRelease reports whether stmt is `x.Release()` for an
// identifier x whose type is a pointer to a batch.Batch, returning x's
// object.
func isBatchRelease(pass *Pass, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, false
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Batch" || named.Obj().Pkg() == nil || pathTail(named.Obj().Pkg().Path()) != "batch" {
		return nil, false
	}
	return pass.TypesInfo.Uses[id], true
}

// released maps a poisoned object to the position of its Release call.
type released map[types.Object]token.Pos

func (r released) clone() released {
	c := make(released, len(r))
	for k, v := range r { // order-free: map-to-map copy keyed by the iteration key
		c[k] = v
	}
	return c
}

// checkUseAfterRelease runs the conservative path-aware scan over one
// function body.
func checkUseAfterRelease(pass *Pass, body *ast.BlockStmt) {
	walkReleaseBlock(pass, body.List, released{})
}

// walkReleaseBlock scans statements in order, threading the poisoned
// set; it returns the set live at fall-through.
func walkReleaseBlock(pass *Pass, stmts []ast.Stmt, rel released) released {
	for _, s := range stmts {
		rel = walkReleaseStmt(pass, s, rel)
	}
	return rel
}

func walkReleaseStmt(pass *Pass, s ast.Stmt, rel released) released {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if obj, ok := isBatchRelease(pass, call); ok && obj != nil {
				reportReleasedUses(pass, s, rel) // double release is a use too
				rel = rel.clone()
				rel[obj] = call.Pos()
				return rel
			}
		}
		reportReleasedUses(pass, s, rel)
		return rel
	case *ast.DeferStmt:
		// defer x.Release() runs at function exit: neither a use now nor a
		// poison for the statements that follow. Other defers are plain
		// uses of their current arguments.
		if _, ok := isBatchRelease(pass, s.Call); ok {
			return rel
		}
		reportReleasedUses(pass, s, rel)
		return rel
	case *ast.AssignStmt:
		reportReleasedUses(pass, s.Rhs, rel)
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if obj := identObj(pass, id); obj != nil && rel[obj] != 0 {
					rel = rel.clone()
					delete(rel, obj)
					continue
				}
			}
			reportReleasedUses(pass, l, rel)
		}
		return rel
	case *ast.IfStmt:
		if s.Init != nil {
			rel = walkReleaseStmt(pass, s.Init, rel)
		}
		reportReleasedUses(pass, s.Cond, rel)
		thenRel := walkReleaseBlock(pass, s.Body.List, rel.clone())
		elseRel := rel
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseRel = walkReleaseBlock(pass, e.List, rel.clone())
				if terminates(e.List) {
					elseRel = rel
				}
			case *ast.IfStmt:
				elseRel = walkReleaseStmt(pass, e, rel.clone())
			}
		}
		// A release on a fall-through branch poisons every later
		// statement ("along any path"); a branch that terminates takes its
		// releases with it.
		merged := rel.clone()
		if !terminates(s.Body.List) {
			for k, v := range thenRel { // order-free: set union keyed by the iteration key
				merged[k] = v
			}
		}
		for k, v := range elseRel { // order-free: set union keyed by the iteration key
			merged[k] = v
		}
		return merged
	case *ast.BlockStmt:
		return walkReleaseBlock(pass, s.List, rel)
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Loop- and branch-carried release tracking is deliberately not
		// propagated outward: analyze the interior against the incoming
		// set, conservatively assume the construct leaves it unchanged.
		switch s := s.(type) {
		case *ast.ForStmt:
			if s.Init != nil {
				walkReleaseStmt(pass, s.Init, rel.clone())
			}
			walkReleaseBlock(pass, s.Body.List, rel.clone())
		case *ast.RangeStmt:
			reportReleasedUses(pass, s.X, rel)
			walkReleaseBlock(pass, s.Body.List, rel.clone())
		case *ast.SwitchStmt:
			reportReleasedUses(pass, s.Tag, rel)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkReleaseBlock(pass, cc.Body, rel.clone())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkReleaseBlock(pass, cc.Body, rel.clone())
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkReleaseBlock(pass, cc.Body, rel.clone())
				}
			}
		}
		return rel
	default:
		reportReleasedUses(pass, s, rel)
		return rel
	}
}

// terminates reports whether a straight-line statement list cannot fall
// through.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// reportReleasedUses flags every identifier in n resolving to a poisoned
// object.
func reportReleasedUses(pass *Pass, n any, rel released) {
	if len(rel) == 0 || n == nil {
		return
	}
	visit := func(node ast.Node) {
		if node == nil {
			return
		}
		ast.Inspect(node, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if at, poisoned := rel[obj]; poisoned {
				if !pass.Annotated(id.Pos(), "pool-ok") {
					pass.Reportf(id.Pos(), "use of %s after Release (released at %s): Release poisons the batch and recycles its buffers", id.Name, pass.Fset.Position(at))
				}
			}
			return true
		})
	}
	switch n := n.(type) {
	case ast.Node:
		visit(n)
	case []ast.Expr:
		for _, e := range n {
			visit(e)
		}
	case []ast.Stmt:
		for _, s := range n {
			visit(s)
		}
	}
}

// --- pool leaks ---

// poolAccessors scans the package for getter and putter functions:
// package-level functions whose bodies call .Get / .Put on a sync.Pool
// or batch.SlicePool value.
func poolAccessors(pass *Pass) (getters, putters map[types.Object]bool) {
	getters = map[types.Object]bool{}
	putters = map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv != nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			hasGet, hasPut := false, false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if !isSyncPool(pass.TypeOf(sel.X)) {
					return true
				}
				switch sel.Sel.Name {
				case "Get":
					hasGet = true
				case "Put":
					hasPut = true
				}
				return true
			})
			if hasGet && !hasPut {
				getters[obj] = true
			}
			if hasPut {
				putters[obj] = true
			}
		}
	}
	return getters, putters
}

func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	// sync.Pool itself, or the size-classed batch.SlicePool built on it.
	return named.Obj().Name() == "Pool" && pkg.Path() == "sync" ||
		named.Obj().Name() == "SlicePool" && pathTail(pkg.Path()) == "batch"
}

// checkPoolLeaks flags variables drawn from a pool getter that never
// reach a sink.
func checkPoolLeaks(pass *Pass, fn *ast.FuncDecl, getters, putters map[types.Object]bool) {
	if len(getters) == 0 {
		return
	}
	// Gather tracked variables: x := getF(n) (also multi-assign).
	type tracked struct {
		obj    types.Object
		pos    token.Pos
		getter string
	}
	var vars []tracked
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			rhs := as.Rhs[i]
			if sl, ok := rhs.(*ast.SliceExpr); ok {
				rhs = sl.X // x := getI32(n)[:0] still owns the buffer
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			callee, ok := call.Fun.(*ast.Ident)
			if !ok {
				continue
			}
			fobj := pass.TypesInfo.Uses[callee]
			if fobj == nil || !getters[fobj] {
				continue
			}
			obj := identObj(pass, as.Lhs[i])
			if obj == nil {
				continue
			}
			if pass.Annotated(call.Pos(), "pool-ok") {
				continue
			}
			vars = append(vars, tracked{obj, call.Pos(), callee.Name})
		}
		return true
	})
	if len(vars) == 0 {
		return
	}
	// Flow-insensitive sink scan.
	sunk := map[types.Object]bool{}
	markIf := func(e ast.Expr) {
		for _, v := range vars {
			if !sunk[v.obj] && mentionsObj(pass, e, v.obj) {
				sunk[v.obj] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch callee := n.Fun.(type) {
			case *ast.Ident:
				if fobj := pass.TypesInfo.Uses[callee]; fobj != nil && putters[fobj] {
					for _, a := range n.Args {
						markIf(a)
					}
				}
				if callee.Name == "append" {
					for _, a := range n.Args {
						markIf(a)
					}
				}
			case *ast.SelectorExpr:
				if callee.Sel.Name == "Release" || callee.Sel.Name == "Put" {
					markIf(callee.X)
					for _, a := range n.Args {
						markIf(a)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markIf(r)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				markIf(e)
			}
		case *ast.SendStmt:
			markIf(n.Value)
		case *ast.FuncLit:
			// Capture by a closure (commonly `defer func(){ put(x) }()`)
			// transfers responsibility into the closure.
			for _, v := range vars {
				if !sunk[v.obj] && funcLitCaptures(pass, n, v.obj) {
					sunk[v.obj] = true
				}
			}
		case *ast.AssignStmt:
			stores := false
			for _, l := range n.Lhs {
				switch l.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					stores = true
				}
			}
			if stores {
				for _, r := range n.Rhs {
					markIf(r)
				}
			}
		}
		return true
	})
	for _, v := range vars {
		if !sunk[v.obj] {
			pass.Reportf(v.pos, "pooled buffer %s from %s never reaches a Put/Release or ownership transfer: the pool degrades to plain allocation (//gus:pool-ok <reason> to override)", v.obj.Name(), v.getter)
		}
	}
}

func funcLitCaptures(pass *Pass, lit *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

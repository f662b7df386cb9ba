// The oracleimport analyzer. The serial reference executor — plan.Execute
// over ops.Rows with sampling.Method.Apply — is what tests, internal/soa
// and the paper experiments compare the engine against. A query path that
// called it would be a second executor again; this check keeps it out.
package analysis

import (
	"go/ast"
	"go/types"
)

// servePkgs are the package tails (besides the module root) on the path
// from an HTTP request to an estimate.
var servePkgs = map[string]bool{
	"engine":   true,
	"online":   true,
	"audit":    true,
	"gusserve": true,
}

// OracleImport keeps the reference executor off the serve path.
var OracleImport = &Analyzer{
	Name: "oracleimport",
	Doc: `keep the reference executor off the serve path

In non-test files of the module root, engine, online, audit and gusserve,
flags any mention of ops.Rows or ops.Row, any use of plan.Execute, and any
use of Apply on a sampling.Method: queries run on the columnar engine,
and the serial row-major stack is a test oracle only. The partitioning
helpers (ops.Span, ops.Partitions, ops.ForEachPartCtx,
ops.DefaultPartitionSize) are not part of the oracle and stay allowed.
There is no suppression directive.`,
	Run: runOracleImport,
}

func runOracleImport(pass *Pass) error {
	if !pass.IsAPILayer() && !servePkgs[pass.PkgTail()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			tail := pathTail(obj.Pkg().Path())
			switch o := obj.(type) {
			case *types.TypeName:
				if tail == "ops" && (o.Name() == "Rows" || o.Name() == "Row") {
					pass.Reportf(sel.Pos(), "ops.%s on the serve path: row-major results belong to the reference executor; use batch.Batch", o.Name())
				}
			case *types.Func:
				recv := o.Type().(*types.Signature).Recv()
				switch {
				case tail == "plan" && o.Name() == "Execute" && recv == nil:
					pass.Reportf(sel.Pos(), "plan.Execute on the serve path: the serial reference executor is a test oracle; run plans on internal/engine")
				case tail == "sampling" && o.Name() == "Apply" && recv != nil:
					pass.Reportf(sel.Pos(), "sampling.Method.Apply on the serve path: the row-major samplers are a test oracle; the engine applies the same keep rules in its kernels")
				}
			}
			return true
		})
	}
	return nil
}

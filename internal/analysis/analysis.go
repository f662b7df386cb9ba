// Package analysis is gusvet: a family of static analyzers that enforce
// the engine's determinism, pooling, and hot-path invariants at compile
// time. See doc.go for the contract of each analyzer and the annotation
// grammar that grants deliberate exceptions.
//
// The types here deliberately mirror golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the suite could be rebased onto the
// upstream framework without touching analyzer logic; the build stays
// dependency-free because the repo vendors nothing — the vet-tool driver
// in unitchecker.go speaks `go vet -vettool` using only the standard
// library.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("determinism").
	Name string
	// Doc is the one-paragraph contract printed by `gusvet help`.
	Doc string
	// Run executes the check over one package and reports findings
	// through pass.Report.
	Run func(*Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ModulePath is the module the package belongs to; the package whose
	// import path equals it is the public gus.DB API layer, which several
	// analyzers treat as above their enforcement boundary.
	ModulePath string
	// Report receives each finding.
	Report func(Diagnostic)

	annots map[string]map[int][]annotation // filename -> line -> directives
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// PkgTail returns the last segment of the package's import path: the
// analyzers scope their rules by it ("engine", "estimator", "obs") so the
// same logic governs both the real module layout
// (.../internal/engine) and the flat analysistest packages (det/engine).
func (p *Pass) PkgTail() string {
	return path.Base(p.Pkg.Path())
}

// PkgHasSegment reports whether the import path contains seg as a full
// path element (e.g. "cmd", "examples").
func (p *Pass) PkgHasSegment(seg string) bool {
	for _, s := range strings.Split(p.Pkg.Path(), "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// IsAPILayer reports whether this package is the module root — the public
// gus.DB surface that sits above the engine invariants (it legitimately
// observes wall-clock latency and owns context plumbing).
func (p *Pass) IsAPILayer() bool {
	return p.ModulePath != "" && p.Pkg.Path() == p.ModulePath
}

// IsTestFile reports whether pos lies in a _test.go file. The gusvet
// invariants govern production code; tests deliberately build oracles
// from maps and clocks.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.Position(pos).Filename
	return strings.HasSuffix(f, "_test.go")
}

// annotation is one parsed //gus:<directive> <reason> comment.
type annotation struct {
	directive string
	reason    string
}

// directives is the closed annotation grammar. Adding a directive here
// without documenting it in doc.go fails TestDirectivesDocumented.
var directives = map[string]bool{
	"nondet-ok":    true, // determinism: ordering/clock use is deliberate
	"stringmap-ok": true, // hotpathmaps: map is an oracle or cold setup
	"ctx-ok":       true, // ctxflow: partition walk is below ctx granularity
	"pool-ok":      true, // poolcontract: buffer ownership leaves the pool
	"trace-ok":     true, // tracenil: eager trace argument is deliberate
}

// parseGusDirective splits a line-comment text ("//gus:nondet-ok why")
// into directive and reason; ok is false for comments that are not gus
// directives at all.
func parseGusDirective(text string) (dir, reason string, ok bool) {
	if !strings.HasPrefix(text, "//gus:") {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, "//gus:")
	dir, reason, _ = strings.Cut(rest, " ")
	return dir, strings.TrimSpace(reason), true
}

func (p *Pass) buildAnnots() {
	if p.annots != nil {
		return
	}
	p.annots = map[string]map[int][]annotation{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, reason, ok := parseGusDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.annots[pos.Filename]
				if byLine == nil {
					byLine = map[int][]annotation{}
					p.annots[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], annotation{dir, reason})
			}
		}
	}
}

// Annotated reports whether the line holding pos — or the line directly
// above it — carries a //gus:<directive> annotation with a non-empty
// reason. Empty-reason annotations do not count (the annotations analyzer
// flags them), so a silenced finding always carries its justification.
func (p *Pass) Annotated(pos token.Pos, directive string) bool {
	p.buildAnnots()
	at := p.Fset.Position(pos)
	byLine := p.annots[at.Filename]
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, a := range byLine[line] {
			if a.directive == directive && a.reason != "" {
				return true
			}
		}
	}
	return false
}

// All returns the full gusvet suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		Annotations,
		Determinism,
		TraceNil,
		PoolContract,
		HotPathMaps,
		CtxFlow,
		OracleImport,
	}
}

// RunAnalyzers executes each analyzer over the pass inputs and returns
// the findings sorted by position. It is the single entry point shared by
// the vet-tool driver and the analysistest harness.
func RunAnalyzers(analyzers []*Analyzer, mk func(*Analyzer) *Pass) ([]Diagnostic, []string, error) {
	var diags []Diagnostic
	var names []string
	for _, a := range analyzers {
		pass := mk(a)
		start := len(diags)
		pass.Report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for range diags[start:] {
			names = append(names, a.Name)
		}
	}
	order := make([]int, len(diags))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return diags[order[i]].Pos < diags[order[j]].Pos })
	sortedD := make([]Diagnostic, len(order))
	sortedN := make([]string, len(order))
	for i, k := range order {
		sortedD[i], sortedN[i] = diags[k], names[k]
	}
	return sortedD, sortedN, nil
}

// Annotations enforces the //gus: directive grammar itself: only the
// documented directives exist, and every one carries a reason. A typoed
// directive would otherwise silently fail to suppress anything (or worse,
// a valid-looking one would suppress nothing and rot).
var Annotations = &Analyzer{
	Name: "annotations",
	Doc: `check //gus: directive grammar

Every gusvet suppression is written //gus:<directive> <reason> as a line
comment on the flagged line or the line above it. This analyzer rejects
unknown directives and directives with no reason, so each suppression
names its justification and typos cannot silently disable a check.`,
	Run: runAnnotations,
}

func runAnnotations(pass *Pass) error {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, reason, ok := parseGusDirective(c.Text)
				if !ok {
					continue
				}
				if !directives[dir] {
					known := make([]string, 0, len(directives))
					for d := range directives {
						known = append(known, d)
					}
					sort.Strings(known)
					pass.Reportf(c.Pos(), "unknown gusvet directive %q (known: %s)", dir, strings.Join(known, ", "))
					continue
				}
				if reason == "" {
					pass.Reportf(c.Pos(), "gusvet directive //gus:%s requires a reason", dir)
				}
			}
		}
	}
	return nil
}

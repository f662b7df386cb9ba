package main

// The hand-assembled query pipeline: what gus.DB does for one request,
// spelled out stage by stage through each layer's public functions so the
// harness can put a span around every call. It mirrors Stmt.exec /
// DB.runInner (gus.go, stmt.go, synopsis.go, prune.go) and
// online.Executor.Run; replay.go checks, for every replayed request, that
// it reproduces the real path's estimate bit for bit and accounts for its
// time, and fails the run when it has drifted.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	gus "github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/sqlparse"
	"github.com/sampling-algebra/gus/internal/stats"
	"github.com/sampling-algebra/gus/internal/synopsis"
)

// Defaults DB.buildOptions applies and the server never overrides.
const (
	confidenceLevel = 0.95
	systemBlockSize = 32
	// estimatorSeedSalt is what evalAggregate adds to the query seed.
	estimatorSeedSalt = 0x5b0c
)

// shape is the harness's stand-in for a cached *gus.Stmt: one parse+plan
// and one compile-once kernel snapshot per normalized statement.
type shape struct {
	tmpl *sqlparse.Template
	prep *engine.Prepared
}

// pipelineEnv is the harness's own view of the files gusserve serves: the
// same segments and synopses, opened through the storage layer directly.
type pipelineEnv struct {
	tables  map[string]*relation.Relation
	syns    map[string][]*synopsis.Synopsis
	segs    []*segment.Table
	shapes  map[string]*shape
	workers int
	rec     *recorder
}

// Table implements sqlparse.Catalog.
func (e *pipelineEnv) Table(name string) (*relation.Relation, bool) {
	r, ok := e.tables[name]
	return r, ok
}

func (e *pipelineEnv) close() {
	for _, t := range e.segs {
		t.Close()
	}
}

func (e *pipelineEnv) bytesMapped() int64 {
	var n int64
	for _, t := range e.segs {
		n += t.BytesMapped()
	}
	return n
}

// openPipelineEnv maps every segment and synopsis in dir, as
// AttachSegmentDir + LoadSynopses do for the DB.
func openPipelineEnv(dir string, workers int, rec *recorder) (*pipelineEnv, error) {
	e := &pipelineEnv{
		tables:  map[string]*relation.Relation{},
		syns:    map[string][]*synopsis.Synopsis{},
		shapes:  map[string]*shape{},
		workers: workers,
		rec:     rec,
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segment.Ext))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), segment.Ext)
		t, err := segment.Open(name, p)
		if err != nil {
			e.close()
			return nil, err
		}
		e.segs = append(e.segs, t)
		e.tables[name] = t.Rel
	}
	data, err := os.ReadFile(filepath.Join(dir, gus.SynopsisManifest))
	if err != nil {
		e.close()
		return nil, err
	}
	var manifests []synopsis.Manifest
	if err := json.Unmarshal(data, &manifests); err != nil {
		e.close()
		return nil, err
	}
	for _, m := range manifests {
		t, err := segment.Open(m.Name, filepath.Join(dir, m.Name+gus.SynopsisExt))
		if err != nil {
			e.close()
			return nil, err
		}
		e.segs = append(e.segs, t)
		s, err := synopsis.FromManifest(m, t.Rel)
		if err == nil {
			err = s.Verify()
		}
		if err == nil {
			err = s.CatchUp(e.tables[m.Table], 0)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		e.syns[m.Table] = append(e.syns[m.Table], s)
	}
	return e, nil
}

// quiet returns a copy of the environment that records into a throwaway
// recorder and, when tables is non-nil, plans against those relations
// with no synopses — so probes neither pollute the trace nor compare a
// synopsis scan with a base scan.
func (e *pipelineEnv) quiet(tables map[string]*relation.Relation) *pipelineEnv {
	q := *e
	q.rec = newRecorder()
	q.shapes = map[string]*shape{}
	if tables != nil {
		q.tables = tables
		q.syns = nil
	}
	return &q
}

// run executes one request and drops both the answer and the spans.
func (e *pipelineEnv) run(ctx context.Context, req request) error {
	e.rec.spans = e.rec.spans[:0]
	_, err := e.staged(ctx, req, 0, true)
	return err
}

func scanAlias(s *plan.Scan) string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Rel.Name()
}

// synopsisStats counts what the subsumption rewrite did for one request.
type synopsisStats struct {
	tried, hits       int
	baseRows, synRows int
}

// applySynopses mirrors DB.applySynopses/trySynopsis: Sample(m, Scan(T))
// becomes Sample(residual, GUS(Bernoulli(q), Scan(synopsis))) when a
// synopsis over T subsumes m.
func (e *pipelineEnv) applySynopses(n plan.Node, st *synopsisStats) plan.Node {
	switch t := n.(type) {
	case *plan.Sample:
		if scan, ok := t.Input.(*plan.Scan); ok && scan.Synopsis == "" {
			if repl := e.trySynopsis(t, scan, st); repl != nil {
				return repl
			}
			return t
		}
		return &plan.Sample{Input: e.applySynopses(t.Input, st), Method: t.Method}
	case *plan.GUS:
		return &plan.GUS{Input: e.applySynopses(t.Input, st), G: t.G}
	case *plan.Select:
		return &plan.Select{Input: e.applySynopses(t.Input, st), Pred: t.Pred}
	case *plan.Join:
		return &plan.Join{Left: e.applySynopses(t.Left, st), Right: e.applySynopses(t.Right, st), LeftCol: t.LeftCol, RightCol: t.RightCol}
	case *plan.Project:
		return &plan.Project{Input: e.applySynopses(t.Input, st), Names: t.Names, Exprs: t.Exprs}
	default:
		// Scans stay; the workloads use no θ-joins or set operations.
		return n
	}
}

func (e *pipelineEnv) trySynopsis(s *plan.Sample, scan *plan.Scan, st *synopsisStats) plan.Node {
	st.tried++
	alias, srcLen := scanAlias(scan), scan.Rel.Len()
	var best *synopsis.Synopsis
	var bestD synopsis.Decision
	for _, syn := range e.syns[scan.Rel.Name()] {
		d := syn.Subsumes(s.Method, alias, srcLen)
		if d.OK && (best == nil || syn.Rel.Len() < best.Rel.Len()) {
			best, bestD = syn, d
		}
	}
	if best == nil {
		return nil
	}
	g, err := core.Bernoulli(alias, best.MinRate)
	if err != nil {
		return nil
	}
	st.hits++
	st.baseRows += srcLen
	st.synRows += best.Rel.Len()
	return &plan.Sample{
		Input: &plan.GUS{
			Input: &plan.Scan{Rel: best.Rel, Alias: alias, Synopsis: best.Name, FullRows: srcLen},
			G:     g,
		},
		Method: &sampling.Residual{Rel: alias, P: bestD.P, Q: best.MinRate, Hash: best.HashSeed, Nested: bestD.Nested},
	}
}

// neededColumns and pruneScanColumns mirror prune.go: every scan is
// narrowed to the columns the query reads above it.
func neededColumns(p *sqlparse.Planned) map[string]bool {
	need := map[string]bool{}
	add := func(cols []string) {
		for _, c := range cols {
			need[c] = true
		}
	}
	for _, a := range p.Aggregates {
		if a.Arg != nil {
			add(expr.Columns(a.Arg))
		}
	}
	if p.GroupBy != "" {
		need[p.GroupBy] = true
	}
	plan.Walk(p.Root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Select:
			add(expr.Columns(t.Pred))
		case *plan.Join:
			need[t.LeftCol], need[t.RightCol] = true, true
		case *plan.Project:
			for _, x := range t.Exprs {
				add(expr.Columns(x))
			}
		}
	})
	return need
}

func pruneScanColumns(n plan.Node, need map[string]bool) plan.Node {
	switch t := n.(type) {
	case *plan.Scan:
		sch := t.Rel.Schema()
		kept := make([]string, 0, len(need))
		for _, c := range sch.Columns() {
			if need[c.Name] {
				kept = append(kept, c.Name)
			}
		}
		if len(kept) == sch.Len() {
			return t
		}
		if len(kept) == 0 {
			kept = append(kept, sch.Col(0).Name)
		}
		return &plan.Scan{Rel: t.Rel, Alias: t.Alias, Synopsis: t.Synopsis, FullRows: t.FullRows, Cols: kept}
	case *plan.Sample:
		return &plan.Sample{Input: pruneScanColumns(t.Input, need), Method: t.Method}
	case *plan.GUS:
		return &plan.GUS{Input: pruneScanColumns(t.Input, need), G: t.G}
	case *plan.Select:
		return &plan.Select{Input: pruneScanColumns(t.Input, need), Pred: t.Pred}
	case *plan.Join:
		return &plan.Join{Left: pruneScanColumns(t.Left, need), Right: pruneScanColumns(t.Right, need), LeftCol: t.LeftCol, RightCol: t.RightCol}
	case *plan.Project:
		return &plan.Project{Input: pruneScanColumns(t.Input, need), Names: t.Names, Exprs: t.Exprs}
	default:
		return n
	}
}

// planFacts mirrors the plan walk in runInner: whether lineage IDs are
// distinct per slot (no SYSTEM sampling, no set operations) and how many
// base rows and partitions the scans read.
func planFacts(root plan.Node) (distinct bool, rowsIn, partitions int) {
	distinct = true
	plan.Walk(root, func(n plan.Node) {
		switch s := n.(type) {
		case *plan.Sample:
			if _, isBlock := s.Method.(*sampling.Block); isBlock {
				distinct = false
			}
		case *plan.Scan:
			rowsIn += s.Rel.Len()
			partitions += len(ops.Partitions(s.Rel.Len(), 0))
		case *plan.Union, *plan.Intersect:
			distinct = false
		}
	})
	return distinct, rowsIn, partitions
}

// leafSubtrees returns the maximal single-scan chains of a plan — the
// scan→sample→select subtrees the engine runs as one fused kernel. A
// single-table plan is its own only leaf.
func leafSubtrees(n plan.Node) []plan.Node {
	binary := false
	plan.Walk(n, func(m plan.Node) {
		if len(m.Children()) > 1 {
			binary = true
		}
	})
	if !binary {
		return []plan.Node{n}
	}
	var out []plan.Node
	for _, c := range n.Children() {
		out = append(out, leafSubtrees(c)...)
	}
	return out
}

// groupHash and groupEqual mirror gus.go's GROUP BY identity: int value,
// float bit pattern with NaNs collapsed, or the string.
func groupHash(v expr.Vec, i int) uint64 {
	switch v.Kind {
	case relation.KindInt:
		return hashtab.Mix(uint64(v.I[i]))
	case relation.KindFloat:
		f := v.F[i]
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return hashtab.Mix(math.Float64bits(f))
	default:
		if v.Codes != nil {
			return v.Dict.Hashes[v.Codes[i]]
		}
		return hashtab.String(v.S[i])
	}
}

func groupEqual(v expr.Vec, i, j int) bool {
	switch v.Kind {
	case relation.KindInt:
		return v.I[i] == v.I[j]
	case relation.KindFloat:
		a, b := v.F[i], v.F[j]
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Float64bits(a) == math.Float64bits(b)
	default:
		if v.Codes != nil {
			return v.Codes[i] == v.Codes[j]
		}
		return v.S[i] == v.S[j]
	}
}

type sampleGroup struct {
	key string
	b   *batch.Batch
}

// partitionBy mirrors partitionBatchByColumn: group rows on the typed
// grouper, order groups by column value, gather each group's rows.
func partitionBy(b *batch.Batch, col string) ([]sampleGroup, error) {
	idx, ok := b.Schema.Index(col)
	if !ok {
		return nil, fmt.Errorf("unknown GROUP BY column %q", col)
	}
	v := b.Cols[idx]
	g := hashtab.NewGrouper(64)
	var reps []int32
	var sels [][]int32
	cand := 0
	eq := func(id int32) bool { return groupEqual(v, cand, int(reps[id])) }
	for i := 0; i < b.Len(); i++ {
		cand = i
		id, fresh := g.Get(groupHash(v, i), eq)
		if fresh {
			reps = append(reps, int32(i))
			sels = append(sels, nil)
		}
		sels[id] = append(sels[id], int32(i))
	}
	order := make([]int, len(reps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool {
		va, vc := b.ValueAt(int(reps[order[a]]), idx), b.ValueAt(int(reps[order[c]]), idx)
		cmp, err := va.Compare(vc)
		if err != nil {
			return va.AsString() < vc.AsString()
		}
		return cmp < 0
	})
	out := make([]sampleGroup, 0, len(order))
	for _, id := range order {
		out = append(out, sampleGroup{key: b.ValueAt(int(reps[id]), idx).AsString(), b: b.Gather(sels[id])})
	}
	return out, nil
}

// flatEstimate is one estimate in the order the real path reports them:
// group by group, item by item.
type flatEstimate struct {
	Group            string
	Est, SD, Lo, Hi  float64
	FractionScanned  float64 // progressive only
	Waves            int     // progressive only
	StoppedForTarget bool    // progressive only
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func bindValues(args []int64) []relation.Value {
	if len(args) == 0 {
		return nil
	}
	vals := make([]relation.Value, len(args))
	for i, a := range args {
		vals[i] = relation.Int(a)
	}
	return vals
}

// aggregateArg mirrors evalAggregate's argument choice; the workloads use
// SUM and COUNT only.
func aggregateArg(agg sqlparse.Aggregate) (expr.Expr, error) {
	switch agg.Kind {
	case sqlparse.AggCount:
		return expr.Int(1), nil
	case sqlparse.AggSum:
		if agg.Arg == nil {
			return expr.Int(1), nil
		}
		return agg.Arg, nil
	default:
		return nil, fmt.Errorf("staged pipeline handles SUM and COUNT, not %v", agg.Kind)
	}
}

// stage runs fn inside a span named name under parent.
func (e *pipelineEnv) stage(name string, parent, request int, fn func(id int) error) error {
	id := e.rec.begin(name, parent, request)
	err := fn(id)
	e.rec.end(id)
	return err
}

// front runs the statement front end shared by both execution modes:
// normalize, parse and plan (only when the real plan cache missed too),
// bind, synopsis rewrite, column pruning and GUS compaction.
func (e *pipelineEnv) front(req request, root, id int, cacheHit bool) (*sqlparse.Planned, *plan.Analysis, *shape, error) {
	var key string
	_ = e.stage("sqlparse.Normalize", root, id, func(int) error { key = sqlparse.Normalize(req.SQL); return nil })
	sh := e.shapes[key]
	if sh == nil || !cacheHit {
		var q *sqlparse.Query
		var tmpl *sqlparse.Template
		err := e.stage("sqlparse.Parse", root, id, func(int) (err error) { q, err = sqlparse.Parse(req.SQL); return })
		if err == nil {
			err = e.stage("sqlparse.PlanTemplate", root, id, func(int) (err error) { tmpl, err = sqlparse.PlanTemplate(q, e); return })
		}
		if err != nil {
			return nil, nil, nil, err
		}
		sh = &shape{tmpl: tmpl, prep: engine.NewPrepared()}
		e.shapes[key] = sh
	}
	var planned *sqlparse.Planned
	err := e.stage("sqlparse.Bind", root, id, func(int) (err error) {
		planned, err = sh.tmpl.Bind(bindValues(req.Args), sqlparse.PlannerOptions{SystemBlockSize: systemBlockSize, Seed: req.Seed})
		return
	})
	if err != nil {
		return nil, nil, nil, err
	}
	_ = e.stage("synopsis.Subsumes", root, id, func(sp int) error {
		var st synopsisStats
		planned.Root = e.applySynopses(planned.Root, &st)
		e.rec.count(sp, "tried", float64(st.tried))
		e.rec.count(sp, "hits", float64(st.hits))
		e.rec.count(sp, "base_rows", float64(st.baseRows))
		e.rec.count(sp, "synopsis_rows", float64(st.synRows))
		return nil
	})
	_ = e.stage("gus.pruneColumns", root, id, func(int) error {
		planned.Root = pruneScanColumns(planned.Root, neededColumns(planned))
		return nil
	})
	var analysis *plan.Analysis
	err = e.stage("plan.Analyze", root, id, func(sp int) (err error) {
		if analysis, err = plan.Analyze(planned.Root); err == nil {
			e.rec.count(sp, "rewrite_steps", float64(len(analysis.Steps)))
		}
		return
	})
	return planned, analysis, sh, err
}

// engineFor builds the engine runInner would: gusserve attaches a trace
// to every request, so the staged pipeline does too.
func (e *pipelineEnv) engineFor(ctx context.Context, req request, sh *shape, workers int) *engine.Engine {
	return engine.New(engine.Config{Workers: workers, Context: ctx, Params: bindValues(req.Args), Prepared: sh.prep, Trace: &gus.Trace{}})
}

// staged runs one request through the layers in the mode its endpoint uses.
func (e *pipelineEnv) staged(ctx context.Context, req request, id int, cacheHit bool) ([]flatEstimate, error) {
	if req.Stream {
		return e.stagedProgressive(ctx, req, id, cacheHit)
	}
	return e.stagedOneShot(ctx, req, id, cacheHit)
}

// stagedOneShot runs one POST /query request through the layers. The
// returned root span's children are the stages; leaf executions (for the
// fused-scan share of a join) hang off a second root so they do not count
// as part of the request.
func (e *pipelineEnv) stagedOneShot(ctx context.Context, req request, id int, cacheHit bool) ([]flatEstimate, error) {
	root := e.rec.begin("request."+req.Kind, -1, id)
	defer e.rec.end(root)
	planned, analysis, sh, err := e.front(req, root, id, cacheHit)
	if err != nil {
		return nil, err
	}
	distinct, rowsIn, partitions := planFacts(planned.Root)
	var b *batch.Batch
	err = e.stage("engine.ExecuteBatch", root, id, func(sp int) (err error) {
		eng := e.engineFor(ctx, req, sh, e.workers)
		if b, err = eng.ExecuteBatch(planned.Root, req.Seed); err != nil {
			return err
		}
		e.rec.count(sp, "rows_in", float64(rowsIn))
		e.rec.count(sp, "rows_out", float64(b.Len()))
		e.rec.count(sp, "partitions", float64(partitions))
		e.rec.count(sp, "partitions_skipped", float64(eng.PartitionsSkipped()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer b.Release()
	_ = e.stage("gus.render", root, id, func(int) error {
		_, _, _ = plan.Format(planned.Root), analysis.FormatTrace(), analysis.G.String()
		return nil
	})
	groups := []sampleGroup{{b: b}}
	if planned.GroupBy != "" {
		err = e.stage("gus.partitionBy", root, id, func(int) (err error) { groups, err = partitionBy(b, planned.GroupBy); return })
		if err != nil {
			return nil, err
		}
	}
	// Diagnostics ride along with the trace, as in evalAggregate.
	eopts := estimator.Options{Seed: req.Seed + estimatorSeedSalt, Workers: e.workers, DistinctLineage: distinct,
		Trace: &gus.Trace{}, Diagnostics: true}
	var out []flatEstimate
	for _, grp := range groups {
		for _, agg := range planned.Aggregates {
			f, err := aggregateArg(agg)
			if err != nil {
				return nil, err
			}
			var er *estimator.Result
			err = e.stage("estimator.EstimateBatch", root, id, func(sp int) (err error) {
				er, err = estimator.EstimateBatch(analysis.G, grp.b, f, eopts)
				e.rec.count(sp, "rows", float64(grp.b.Len()))
				e.rec.count(sp, "lineage_terms", float64(int(1)<<uint(analysis.G.N())))
				return
			})
			if err != nil {
				return nil, err
			}
			lo, hi := er.CI(confidenceLevel, estimator.Normal)
			out = append(out, flatEstimate{Group: grp.key, Est: er.Estimate, SD: er.StdDev(), Lo: lo, Hi: hi})
		}
	}
	if leaves := leafSubtrees(planned.Root); len(leaves) > 1 {
		probe := e.rec.begin("probe.leaves", -1, id)
		for _, leaf := range leaves {
			err := e.stage("engine.ExecuteBatch.leaf", probe, id, func(int) error {
				lb, err := e.engineFor(ctx, req, sh, e.workers).ExecuteBatch(leaf, req.Seed)
				if err == nil {
					lb.Release()
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		e.rec.end(probe)
	}
	return out, nil
}

// stagedProgressive runs one POST /query/stream request through the
// layers, mirroring runProgressive and online.Executor.Run for a single
// SUM-like item: waves of the default size, a snapshot after each, stop at
// the target relative CI.
func (e *pipelineEnv) stagedProgressive(ctx context.Context, req request, id int, cacheHit bool) ([]flatEstimate, error) {
	root := e.rec.begin("request."+req.Kind, -1, id)
	defer e.rec.end(root)
	planned, analysis, sh, err := e.front(req, root, id, cacheHit)
	if err != nil {
		return nil, err
	}
	if len(planned.Aggregates) != 1 {
		return nil, fmt.Errorf("staged progressive pipeline handles one aggregate, got %d", len(planned.Aggregates))
	}
	f, err := aggregateArg(planned.Aggregates[0])
	if err != nil {
		return nil, err
	}
	var w *engine.WaveExec
	eng := e.engineFor(ctx, req, sh, e.workers)
	err = e.stage("engine.PrepareWaves", root, id, func(int) (err error) {
		w, err = eng.PrepareWaves(planned.Root, req.Seed)
		return
	})
	if err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("plan does not split into waves")
	}
	var kernel *expr.VecCompiled
	err = e.stage("expr.CompileVec", root, id, func(int) error {
		schema, err := w.OutSchema()
		if err == nil {
			kernel, err = expr.CompileVec(f, schema)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	g := analysis.G
	acc := estimator.NewAccum(g.N(), false, 0)
	nParts, partRows := w.Partitions(), w.RowsThrough(1)
	waveParts := (8192 + partRows - 1) / partRows
	for pLo, wave := 0, 0; pLo < nParts; wave++ {
		pHi := pLo + waveParts
		if pHi > nParts {
			pHi = nParts
		}
		var b *batch.Batch
		err := e.stage("engine.ExecuteWave", root, id, func(int) (err error) { b, err = w.ExecuteWave(pLo, pHi); return })
		if err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			var fs []float64
			err = e.stage("expr.EvalAll", root, id, func(int) error {
				v, err := kernel.EvalAll(b.Cols, b.Len())
				if err != nil {
					return err
				}
				fs = make([]float64, b.Len())
				for k := range fs {
					if fs[k], err = v.FloatAt(k); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				err = e.stage("estimator.Accum.Add", root, id, func(int) error { return acc.Add(fs, nil, b.Lin) })
			}
			if err != nil {
				return nil, err
			}
		}
		frac := float64(w.RowsThrough(pHi)) / float64(w.InputRows())
		final := pHi == nParts
		gw := g
		if !final {
			err = e.stage("online.prefixGUS", root, id, func(int) error {
				pb, err := core.Bernoulli(w.Alias(), frac)
				if err != nil {
					return err
				}
				ext, err := pb.Extend(g.Schema())
				if err == nil {
					gw, err = core.Compact(g, ext)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		var y []float64
		if final {
			_ = e.stage("estimator.Accum.Finalize", root, id, func(int) error { y = acc.Finalize(); return nil })
		} else {
			_ = e.stage("estimator.Accum.Moments", root, id, func(int) error { y = acc.Moments(); return nil })
		}
		var res *estimator.Result
		err = e.stage("estimator.EstimateFromMoments", root, id, func(int) (err error) {
			res, err = estimator.EstimateFromMoments(gw, acc.Total(), y, acc.Rows())
			return
		})
		if err != nil {
			return nil, err
		}
		_ = e.stage("estimator.DiagnoseAccum", root, id, func(int) error {
			estimator.DiagnoseAccum(acc, false, res.Clamped)
			return nil
		})
		est, sd := res.Estimate, res.StdDev()
		half := stats.NormalHalfWidth(confidenceLevel, sd)
		met := est != 0 && !math.IsNaN(est) && half/math.Abs(est) <= progressiveTarget
		if final || met {
			e.rec.count(root, "rows_in", float64(w.RowsThrough(pHi)))
			e.rec.count(root, "rows_out", float64(acc.Rows()))
			e.rec.count(root, "partitions", float64(pHi))
			e.rec.count(root, "partitions_skipped", float64(eng.PartitionsSkipped()))
			e.rec.count(root, "rows", float64(acc.Rows()))
			e.rec.count(root, "lineage_terms", float64(int(1)<<uint(g.N())))
			return []flatEstimate{{Est: est, SD: sd, Lo: est - half, Hi: est + half,
				FractionScanned: frac, Waves: wave + 1, StoppedForTarget: !final}}, nil
		}
		pLo = pHi
	}
	return nil, fmt.Errorf("wave loop ended without a final update")
}

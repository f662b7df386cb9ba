package main

// Layer probes: measurements no single replayed request isolates, taken
// once per traced run against the same files and the workload's own first
// request.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/sqlparse"
	"github.com/sampling-algebra/gus/internal/synopsis"
	"github.com/sampling-algebra/gus/internal/tpch"
)

// probeReps is how often a probe repeats a sub-millisecond-to-100-ms
// operation before reporting the median.
const probeReps = 5

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	v := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v = append(v, float64(time.Since(start)))
	}
	return time.Duration(median(v)), nil
}

// probeStorage times what gusgen does in set-up — generate, write
// segments, build synopses — and what gusserve does at start: open. The
// generated tables are returned as the resident copy of the mapped data.
func probeStorage(cfg runConfig, env *pipelineEnv, m metricSet) (*tpch.Tables, error) {
	// gusgen's -orders arithmetic.
	gcfg := tpch.Config{Orders: cfg.Orders, Customers: cfg.Orders / 10, Parts: cfg.Orders / 8, Seed: cfg.Seed}
	if gcfg.Customers < 1 {
		gcfg.Customers = 1
	}
	if gcfg.Parts < 1 {
		gcfg.Parts = 1
	}
	start := time.Now()
	tables, err := tpch.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	m["tpch.generate_s"] = time.Since(start).Seconds()

	dir, err := os.MkdirTemp(cfg.OutDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start = time.Now()
	for _, rel := range tables.All() {
		if _, err := segment.Write(filepath.Join(dir, rel.Name()+segment.Ext), rel); err != nil {
			return nil, err
		}
	}
	m["segment.write_s"] = time.Since(start).Seconds()

	start = time.Now()
	for _, rel := range tables.All() {
		if _, err := synopsis.Build(rel, synopsis.Spec{Name: rel.Name() + "_syn", Rate: 0.02, Seed: cfg.Seed}, 0); err != nil {
			return nil, err
		}
	}
	m["synopsis.build_s"] = time.Since(start).Seconds()

	lineitem := filepath.Join(dir, "lineitem"+segment.Ext)
	open, err := timeMedian(4*probeReps, func() error {
		t, err := segment.Open("lineitem", lineitem)
		if err != nil {
			return err
		}
		return t.Close()
	})
	if err != nil {
		return nil, err
	}
	m["segment.open_ms"] = msOf(open)
	m["segment.bytes_mapped"] = float64(env.bytesMapped())

	mapped := env.tables["lineitem"]
	snap, err := timeMedian(20*probeReps, func() error {
		_, err := batch.FromRelation(mapped, "")
		return err
	})
	if err != nil {
		return nil, err
	}
	m["relation.snapshot_us"] = float64(snap) / float64(time.Microsecond)
	return tables, nil
}

// planFirst plans the workload's first request in env and returns the
// executable plan with its statement shape.
func planFirst(env *pipelineEnv, first request) (*sqlparse.Planned, *shape, error) {
	root := env.rec.begin("probe.plan", -1, -1)
	defer env.rec.end(root)
	planned, _, sh, err := env.front(first, root, -1, false)
	return planned, sh, err
}

// executions times ExecuteBatch of the first request's plan once per
// configuration per round, interleaved so cache state favours none, and
// returns each configuration's median. Every round starts on a collected
// heap: a collection that began mid-run would be charged to whichever
// configuration happened to be running. The first round, which builds
// snapshots and fills pools, is dropped.
func executions(ctx context.Context, first request, configs []execConfig) ([]float64, error) {
	times := make([][]float64, len(configs))
	for round := 0; round <= probeReps; round++ {
		runtime.GC()
		for i, c := range configs {
			start := time.Now()
			b, err := c.env.engineFor(ctx, first, c.shape, c.workers).ExecuteBatch(c.planned.Root, first.Seed)
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			b.Release()
			if round > 0 {
				times[i] = append(times[i], float64(d))
			}
		}
	}
	out := make([]float64, len(configs))
	for i, t := range times {
		out[i] = median(t)
	}
	return out, nil
}

type execConfig struct {
	env     *pipelineEnv
	planned *sqlparse.Planned
	shape   *shape
	workers int
}

// baseTables returns an environment planning against the given relations
// with no synopses, and the first request planned in it: the engine probes
// compare like with like only when every scan reads a base table.
func baseTables(env *pipelineEnv, tables map[string]*relation.Relation, first request, workers int) (execConfig, error) {
	q := env.quiet(tables)
	planned, sh, err := planFirst(q, first)
	return execConfig{env: q, planned: planned, shape: sh, workers: workers}, err
}

// probeWorkers measures worker scaling: execute at 1 worker over execute
// at GOMAXPROCS workers (the base is stated in the metric's README entry).
func probeWorkers(ctx context.Context, env *pipelineEnv, first request, m metricSet) error {
	wide, err := baseTables(env, env.tables, first, env.workers)
	if err != nil {
		return err
	}
	one := wide
	one.workers = 1
	t, err := executions(ctx, first, []execConfig{one, wide})
	if err != nil {
		return err
	}
	m["engine.worker_speedup"] = ratio(t[0], t[1])
	return nil
}

// probeResident measures what scanning the mapping costs against scanning
// a resident copy of the same rows.
func probeResident(ctx context.Context, env *pipelineEnv, resident *tpch.Tables, first request, m metricSet) error {
	mapped, err := baseTables(env, env.tables, first, env.workers)
	if err != nil {
		return err
	}
	copies := map[string]*relation.Relation{}
	for _, rel := range resident.All() {
		copies[rel.Name()] = rel
	}
	heap, err := baseTables(env, copies, first, env.workers)
	if err != nil {
		return err
	}
	t, err := executions(ctx, first, []execConfig{mapped, heap})
	if err != nil {
		return err
	}
	m["segment.scan_vs_resident_ratio"] = ratio(t[0], t[1])
	return nil
}

// kernelRows caps how many rows of a real snapshot the kernel probes
// evaluate: enough to leave the cache, few enough to stay milliseconds.
const kernelRows = 1 << 16

// probeKernels compiles and evaluates the first request's predicate and
// aggregate kernels over a real snapshot batch, and drives the grouper
// over the real join-key and group-key columns.
func probeKernels(env *pipelineEnv, first request, m metricSet) error {
	q := env.quiet(nil)
	planned, _, err := planFirst(q, first)
	if err != nil {
		return err
	}
	var exprs []expr.Expr
	var scans []*plan.Scan
	plan.Walk(planned.Root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Select:
			exprs = append(exprs, t.Pred)
		case *plan.Scan:
			scans = append(scans, t)
		}
	})
	for _, a := range planned.Aggregates {
		if a.Arg != nil {
			exprs = append(exprs, a.Arg)
		}
	}
	vals := bindValues(first.Args)
	kinds := make([]relation.Kind, len(vals))
	binds := make([]expr.Vec, len(vals))
	for i, v := range vals {
		kinds[i], binds[i] = v.Kind(), expr.ConstVec(v)
	}
	var compileUS, evalNS float64
	for _, x := range exprs {
		scan := scanCovering(scans, expr.Columns(x))
		if scan == nil {
			return fmt.Errorf("no scan provides the columns of %s", x)
		}
		schema := scan.Rel.Schema()
		var kernel *expr.VecCompiled
		d, err := timeMedian(4*probeReps, func() (err error) {
			kernel, err = expr.CompileVecBind(x, schema, kinds)
			return
		})
		if err != nil {
			return err
		}
		compileUS += float64(d) / float64(time.Microsecond)
		b, err := batch.FromRelation(scan.Rel, "")
		if err != nil {
			return err
		}
		n := b.Len()
		if n > kernelRows {
			n = kernelRows
		}
		if n == 0 {
			continue
		}
		d, err = timeMedian(probeReps, func() error {
			_, err := kernel.EvalAllBind(b.Cols, binds, n)
			return err
		})
		if err != nil {
			return err
		}
		evalNS += float64(d) / float64(n)
	}
	m["expr.compile_vec_us"], m["expr.eval_ns_per_row"] = compileUS, evalNS

	lineitem, err := batch.FromRelation(env.tables["lineitem"], "")
	if err != nil {
		return err
	}
	var perKey float64
	for _, col := range []string{"l_orderkey", "l_linenumber"} {
		idx, ok := lineitem.Schema.Index(col)
		if !ok {
			return fmt.Errorf("lineitem has no column %s", col)
		}
		keys := lineitem.Cols[idx].I
		if len(keys) > 4*kernelRows {
			keys = keys[:4*kernelRows]
		}
		d, err := timeMedian(probeReps, func() error {
			g := hashtab.NewGrouper(64)
			var reps []int64
			cand := int64(0)
			eq := func(id int32) bool { return reps[id] == cand }
			for _, k := range keys {
				cand = k
				if _, fresh := g.Get(hashtab.Mix(uint64(k)), eq); fresh {
					reps = append(reps, k)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		perKey += float64(d) / float64(len(keys)) / 2
	}
	m["hashtab.grouper_ns_per_key"] = perKey
	return nil
}

// scanCovering returns the scan whose relation has every named column.
func scanCovering(scans []*plan.Scan, cols []string) *plan.Scan {
	for _, s := range scans {
		all := true
		for _, c := range cols {
			if _, ok := s.Rel.Schema().Index(c); !ok {
				all = false
			}
		}
		if all {
			return s
		}
	}
	return nil
}

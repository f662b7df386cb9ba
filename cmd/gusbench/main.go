// Command gusbench regenerates the paper's figures, tables and worked
// examples, plus the reconstructed accuracy/runtime evaluation (the arXiv
// preprint's experimental section is missing). Each experiment prints
// paper-expected values next to measured ones.
//
// Usage:
//
//	gusbench -exp all
//	gusbench -exp accuracy -trials 300 -orders 20000
//
// Experiments: fig1, query1, fig4, fig5, accuracy, variance,
// rewrite-runtime, subsample, robustness, planner, cardinality, prepared,
// obs, storage, calibration, synopsis, all.
package main

import (
	"flag"
	"fmt"
	"os"

	gus "github.com/sampling-algebra/gus"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (fig1|query1|fig4|fig5|accuracy|variance|rewrite-runtime|subsample|robustness|planner|cardinality|prepared|obs|storage|calibration|synopsis|all)")
		trials   = flag.Int("trials", 200, "Monte-Carlo trials for statistical experiments")
		orders   = flag.Int("orders", 8000, "orders-table cardinality for generated TPC-H data")
		seed     = flag.Uint64("seed", 42, "base RNG seed")
		workers  = flag.Int("workers", 0, "engine worker-pool width for query execution (0 = GOMAXPROCS)")
		prepare  = flag.Bool("prepare", false, "run only the prepared-statement amortization experiment (alias for -exp prepared)")
		prepArgs = flag.String("args", "", "bindings for -exp prepared as \"percent,quantity\" (default \"10,24.0\" point / \"25,24.0\" q1 quantity)")
	)
	flag.Parse()
	if *prepare {
		*exp = "prepared"
	}

	cfg := benchConfig{trials: *trials, orders: *orders, seed: *seed, workers: *workers, prepArgs: *prepArgs}
	runs := map[string]func(benchConfig) error{
		"fig1":            runFig1,
		"query1":          runQuery1,
		"fig4":            runFig4,
		"fig5":            runFig5,
		"accuracy":        runAccuracy,
		"variance":        runVariance,
		"rewrite-runtime": runRewriteRuntime,
		"subsample":       runSubsample,
		"robustness":      runRobustness,
		"planner":         runPlanner,
		"cardinality":     runCardinality,
		"prepared":        runPrepared,
		"obs":             runObs,
		"storage":         runStorage,
		"calibration":     runCalibration,
		"synopsis":        runSynopsis,
	}
	order := []string{"fig1", "query1", "fig4", "fig5", "accuracy", "variance",
		"rewrite-runtime", "subsample", "robustness", "planner", "cardinality", "prepared", "obs", "storage", "calibration", "synopsis"}

	if *exp == "all" {
		for _, name := range order {
			if err := runs[name](cfg); err != nil {
				fmt.Fprintf(os.Stderr, "gusbench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	fn, ok := runs[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "gusbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := fn(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gusbench: %v\n", err)
		os.Exit(1)
	}
}

type benchConfig struct {
	trials  int
	orders  int
	seed    uint64
	workers int
	// prepArgs optionally overrides the prepared experiment's bindings,
	// as "percent,quantity" (see runPrepared).
	prepArgs string
}

// open creates a DB with the configured engine parallelism. Seeded
// experiment outputs are identical at any -workers value.
func (c benchConfig) open() *gus.DB {
	db := gus.Open()
	db.SetWorkers(c.workers)
	return db
}

func header(title string) {
	fmt.Println()
	fmt.Println("==========================================================================")
	fmt.Println(title)
	fmt.Println("==========================================================================")
}

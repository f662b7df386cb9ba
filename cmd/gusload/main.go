// Command gusload is the repository's benchmark: it drives a real
// gusserve subprocess over HTTP with four seeded workloads, validates
// every reply, and reports end-to-end metrics (tracing off) and per-layer
// metrics (a traced, in-process, stage-by-stage replay of the same request
// streams). BENCHMARK.json at the module root declares what it reports;
// README.md in this directory says why.
//
// One run of one workload, as the benchmark driver calls it:
//
//	go run ./cmd/gusload --workload scan_groupby --seed 7 --seconds 18 --trace 0
//
// prints one JSON object as the last line of standard output. Without
// --workload it runs the whole suite — every workload untraced, then
// traced, -sets times — and writes DIR/summary.json:
//
//	go run ./cmd/gusload -seed 7 -out DIR -sets 5
//	go run ./cmd/gusload -compare A/summary.json B/summary.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"text/tabwriter"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result line (default: the whole suite)")
		seed         = flag.Uint64("seed", 1, "benchmark seed: drives the dataset, every request's seed, bound args and literals")
		seconds      = flag.Float64("seconds", 18, "measured window per run, in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		orders       = flag.Int("orders", 250000, "dataset scale: orders cardinality (lineitem is about 4x)")
		out          = flag.String("out", filepath.Join(".bench_build", "gusload"), "directory for binaries, scratch data, traces and summary.json")
		sets         = flag.Int("sets", 1, "suite mode: repeat the whole suite this many times (-compare measures its noise floor from them)")
		compare      = flag.Bool("compare", false, "compare two summary.json files given as arguments: base, then new")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two summary.json paths: base, then new"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if !(*seconds > 0) || *orders < 1000 || *sets < 1 {
		fatal(fmt.Errorf("need -seconds > 0, -orders >= 1000 and -sets >= 1"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	binDir := filepath.Join(*out, "bin")
	if err := buildBinaries(ctx, ".", binDir); err != nil {
		fatal(err)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Orders: *orders, OutDir: *out, BinDir: binDir}

	if *workloadName == "" {
		ok, err := runSuite(ctx, cfg, *sets)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, found := findWorkload(*workloadName)
	if !found {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	cfg.Workload, cfg.Trace = w, *trace != 0
	res, err := run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	line, ok := resultLine(res, cfg.Trace)
	printMetrics(os.Stderr, w.Name, res, cfg.Trace)
	fmt.Println(line)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gusload:", err)
	os.Exit(1)
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// rendered returns the run's metrics against the declaration list for its
// mode. A declared metric the run did not produce makes the result
// incorrect rather than shorter.
func (r *runResult) rendered(trace bool) map[string]metricValue {
	metrics, missing := r.Metrics.render(defsFor(trace))
	for _, name := range missing {
		r.fail("metric %s was not measured", name)
	}
	return metrics
}

// resultLine renders the driver's one-line result.
func resultLine(res *runResult, trace bool) (string, bool) {
	metrics := res.rendered(trace)
	type wire struct {
		*runResult
		Metrics map[string]metricValue `json:"metrics"`
	}
	line, err := json.Marshal(wire{res, metrics})
	if err != nil {
		// A NaN metric (coverage over zero intervals, say) has no JSON
		// form; report the failure without metrics.
		res.fail("result not representable: %v", err)
		if line, err = json.Marshal(wire{res, map[string]metricValue{}}); err != nil {
			return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`, false
		}
	}
	return string(line), res.Correct
}

// printMetrics writes every metric by name with its unit, then whatever
// went wrong.
func printMetrics(f *os.File, name string, res *runResult, trace bool) {
	tw := tabwriter.NewWriter(f, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s\tattempted %d\tfailed %d\tcorrect %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, d := range defsFor(trace) {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	shown := res.Problems
	if len(shown) > 10 {
		shown = shown[:10]
	}
	for _, p := range shown {
		fmt.Fprintln(f, "  !", p)
	}
	if n := len(res.Problems) - len(shown); n > 0 {
		fmt.Fprintf(f, "  ! … and %d more\n", n)
	}
}

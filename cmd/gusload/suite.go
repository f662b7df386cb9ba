package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// environment records where a summary was measured: numbers from
// different boxes are not comparable, and -compare says so.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func recordEnvironment(ctx context.Context) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A source tree without git metadata (a tarball, the driver's
	// checkout) simply has no commit to record.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// workloadSummary is one workload's two runs in one suite set.
type workloadSummary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Problems  []string               `json:"problems,omitempty"`
}

type suiteSet struct {
	Workloads map[string]workloadSummary `json:"workloads"`
}

// suiteSummary is summary.json. This change defines the benchmark and
// claims no gain, so Claim is always null; it is the last field so the
// file ends with it.
type suiteSummary struct {
	Benchmark   string      `json:"benchmark"`
	Environment environment `json:"environment"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Orders      int         `json:"orders"`
	OfferedRate float64     `json:"dashboard_open_offered_qps"`
	Sets        []suiteSet  `json:"sets"`
	Claim       *string     `json:"claim"`
}

// runSuite runs every workload untraced and then traced, sets times,
// prints every metric and writes summary.json. It reports whether every
// run was correct.
func runSuite(ctx context.Context, cfg runConfig, sets int) (bool, error) {
	sum := suiteSummary{
		Benchmark:   "gusload",
		Environment: recordEnvironment(ctx),
		Seed:        cfg.Seed,
		Seconds:     cfg.Seconds,
		Orders:      cfg.Orders,
		OfferedRate: dashboardRate,
	}
	allOK := true
	for i := 0; i < sets; i++ {
		set := suiteSet{Workloads: map[string]workloadSummary{}}
		for _, w := range workloads {
			ws := workloadSummary{Correct: true}
			for _, traced := range []bool{false, true} {
				cfg.Workload, cfg.Trace = w, traced
				res, err := run(ctx, cfg)
				if err != nil {
					return false, fmt.Errorf("%s: %w", w.Name, err)
				}
				metrics := res.rendered(traced)
				fmt.Fprintf(os.Stderr, "set %d/%d ", i+1, sets)
				printMetrics(os.Stderr, w.Name, res, traced)
				if traced {
					ws.PerLayer = metrics
				} else {
					ws.EndToEnd = metrics
				}
				ws.Correct = ws.Correct && res.Correct
				ws.Attempted += res.Attempted
				ws.Failed += res.Failed
				ws.Problems = append(ws.Problems, res.Problems...)
			}
			allOK = allOK && ws.Correct
			set.Workloads[w.Name] = ws
		}
		sum.Sets = append(sum.Sets, set)
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return false, fmt.Errorf("summary not representable: %w", err)
	}
	path := filepath.Join(cfg.OutDir, "summary.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return allOK, nil
}

func loadSummary(path string) (*suiteSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets recorded", path)
	}
	return &s, nil
}

// values collects one metric of one workload across a summary's sets.
func (s *suiteSummary) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, set := range s.Sets {
		ws := set.Workloads[workload]
		m := ws.EndToEnd
		if traced {
			m = ws.PerLayer
		}
		if v, ok := m[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares a new median against a base whose own run-to-run spread
// is baseSpread (NaN when the base has a single set and the noise floor
// was never measured). worse is the relative change in the metric's bad
// direction.
func judge(d metricDef, base, next, baseSpread float64) (verdict string, worse float64) {
	worse = (next - base) / base
	if d.Better == "higher" {
		worse = -worse
	}
	floor := baseSpread
	if math.IsNaN(baseSpread) {
		floor = d.Bound
	}
	switch {
	case baseSpread > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	case -worse > floor:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// compareFiles prints one row per (workload, end-to-end metric) with a
// verdict, then the per-layer metrics beside the end-to-end metric each
// was predicted to move.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := loadSummary(basePath)
	if err != nil {
		return err
	}
	next, err := loadSummary(newPath)
	if err != nil {
		return err
	}
	if base.Environment.CPUModel != next.Environment.CPUModel || base.Environment.NProc != next.Environment.NProc {
		fmt.Fprintf(w, "note: summaries come from different hosts (%s x%d vs %s x%d); timings are not comparable\n",
			base.Environment.CPUModel, base.Environment.NProc, next.Environment.CPUModel, next.Environment.NProc)
	}
	if base.Seed != next.Seed || base.Seconds != next.Seconds || base.Orders != next.Orders {
		fmt.Fprintf(w, "note: settings differ (seed %d/%d, seconds %g/%g, orders %d/%d)\n",
			base.Seed, next.Seed, base.Seconds, next.Seconds, base.Orders, next.Orders)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase (sets=%d)\tnew (sets=%d)\tnew/base\tbase spread\tbound\tverdict\n", len(base.Sets), len(next.Sets))
	for _, wl := range workloads {
		for _, d := range endToEnd {
			bv, nv := base.values(wl.Name, d.Name, false), next.values(wl.Name, d.Name, false)
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.2f\tunresolved\n", wl.Name, d.Name, d.Bound)
				continue
			}
			b, n := median(bv), median(nv)
			sp, spText := spread(bv), "n/a"
			if len(bv) < 2 {
				sp = math.NaN()
			} else {
				spText = fmt.Sprintf("%.3f", sp)
			}
			verdict, _ := judge(d, b, n, sp)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3f\t%s\t%.2f\t%s\n", wl.Name, d.Name, b, d.Unit, n, d.Unit, n/b, spText, d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tlayer metric\tbase\tnew\tnew/base\tpredicted to move")
	for _, wl := range workloads {
		for _, d := range perLayer {
			bv, nv := base.values(wl.Name, d.Name, true), next.values(wl.Name, d.Name, true)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			b, n := median(bv), median(nv)
			ratio := "-"
			if b != 0 {
				ratio = fmt.Sprintf("%.3f", n/b)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%s\t%s\n", wl.Name, d.Name, b, d.Unit, n, d.Unit, ratio, d.Moves)
		}
	}
	return tw.Flush()
}

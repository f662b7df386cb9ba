package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the module root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

const moduleRoot = "../.."

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(moduleRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// BENCHMARK.json and the harness declare the same workloads and metrics,
// name for name: a renamed metric cannot drift from the file.
func TestBenchmarkJSONLockstep(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no prediction of the end-to-end metric it should move", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	for _, p := range bf.Paths {
		if p != "cmd/gusload" {
			t.Errorf("unexpected benchmark path %q", p)
		}
	}
}

func metricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs the whole path at toy scale: build the binaries, generate
// a 5000-order dataset, drive a real gusserve for a second per workload,
// replay in-process with spans, and check that each result line parses
// and names exactly the declared metrics. Timing-dependent verdicts
// (coverage over a handful of intervals, drift over a handful of
// requests) are logged, not asserted; failed requests and broken
// determinism are asserted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs a server; skipped under -short")
	}
	out := t.TempDir()
	ctx := context.Background()
	binDir := filepath.Join(out, "bin")
	if err := buildBinaries(ctx, moduleRoot, binDir); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(ctx, runConfig{Workload: w, Seed: 1, Seconds: 1, Orders: 5000, OutDir: out, BinDir: binDir, Trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			line, _ := resultLine(res, traced)
			var parsed struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&parsed); err != nil {
				t.Fatalf("%s trace=%v: result line does not parse: %v\n%s", w.Name, traced, err, line)
			}
			if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
				t.Fatalf("%s trace=%v: result line lacks a required key: %s", w.Name, traced, line)
			}
			if *parsed.Attempted < 1 || *parsed.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, traced, *parsed.Attempted, *parsed.Failed)
			}
			if got, want := metricNames(parsed.Metrics), declaredNames(defsFor(traced)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want exactly %v", w.Name, traced, got, want)
			}
			for _, d := range defsFor(traced) {
				if parsed.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s: %s reported in %q, declared %q", w.Name, d.Name, parsed.Metrics[d.Name].Unit, d.Unit)
				}
			}
			for _, p := range res.Problems {
				t.Logf("%s trace=%v: %s", w.Name, traced, p)
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace."+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace.%s.json: %v", w.Name, err)
		}
		roots := 0
		for _, s := range tf.Spans {
			if s.Parent >= len(tf.Spans) || s.Request >= tf.Requests || s.EndNS < s.StartNS {
				t.Fatalf("trace.%s.json: malformed span %+v", w.Name, s)
			}
			if s.Parent < 0 && strings.HasPrefix(s.Name, "request.") {
				roots++
			}
		}
		if roots != tf.Requests {
			t.Errorf("trace.%s.json: %d request roots for %d requests", w.Name, roots, tf.Requests)
		}
	}
}

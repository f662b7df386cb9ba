package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSONLockstep keeps the
// two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it regressed (0 for
	// per-layer metrics, which are diagnostics and carry no bound).
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it was predicted to move before anything was measured.
	Moves string
}

// endToEnd is what a user of gusserve sees, measured with tracing off.
//
// The bounds are what this benchmark's own repeat runs support on the
// shared 2-core box that recorded the baseline: the host runs at one of
// two speeds 1.3× apart and holds either for minutes, so ten runs inside
// one phase spread 4–9% of the median on every timing and ten runs across
// a switch up to 21%. The timings take the 0.25 the driver allows; README
// has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "server_cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ci_coverage", Unit: "ratio", Better: "higher", Bound: 0.08},
	{Name: "rel_ci_halfwidth_p50", Unit: "ratio", Better: "lower", Bound: 0.05},
}

// perLayer is one row per layer counter or stage time, layer = package
// name. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "gusserve.http_overhead_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, server_cpu_ms_per_query @ dashboard_open"},
	{Name: "gusserve.response_bytes", Unit: "bytes", Better: "lower", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "gusserve.stream_frames_per_query", Unit: "count", Better: "lower", Moves: "first_update_p50_ms @ progressive_stream"},
	{Name: "gusserve.latency_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic: tail beyond latency_p95_ms @ dashboard_open"},
	{Name: "gusserve.error_rate", Unit: "ratio", Better: "lower", Moves: "diagnostic: failed/attempted, must stay 0"},
	{Name: "gusload.sched_lag_p95_ms", Unit: "ms", Better: "lower", Moves: "diagnostic: generator lateness @ dashboard_open"},

	{Name: "gus.query_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms everywhere"},
	{Name: "gus.self_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ dashboard_open; grouping @ scan_groupby"},
	{Name: "gus.prepare_cached_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "gus.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "gus.allocs_per_query", Unit: "count", Better: "lower", Moves: "latency_p95_ms, server_cpu_ms_per_query everywhere (GC)"},
	{Name: "gus.bytes_per_query", Unit: "bytes", Better: "lower", Moves: "latency_p95_ms, server_cpu_ms_per_query everywhere (GC)"},
	{Name: "gus.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms everywhere (the server traces every request)"},
	{Name: "gus.replay_coverage_ratio", Unit: "ratio", Better: "higher", Moves: "diagnostic: staged spans / gus.query_ms, must stay within 15% of 1"},

	{Name: "sqlparse.normalize_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open (range_literal)"},
	{Name: "sqlparse.plan_template_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open (range_literal)"},
	{Name: "sqlparse.bind_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open"},

	{Name: "plan.analyze_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "plan.rewrite_steps", Unit: "count", Better: "lower", Moves: "plan.analyze_us"},

	{Name: "synopsis.subsume_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "synopsis.hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "synopsis.scan_reduction", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "synopsis.build_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},

	{Name: "engine.execute_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, throughput_qps @ scan_groupby, join_estimate"},
	{Name: "engine.fused_scan_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, throughput_qps @ scan_groupby; less @ join_estimate"},
	{Name: "engine.join_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ join_estimate only"},
	{Name: "engine.rows_in", Unit: "count", Better: "lower", Moves: "engine.fused_scan_ms"},
	{Name: "engine.rows_out", Unit: "count", Better: "lower", Moves: "estimator.estimate_ms"},
	{Name: "engine.scan_mrows_per_s", Unit: "Mrows/s", Better: "higher", Moves: "throughput_qps @ scan_groupby"},
	{Name: "engine.partitions_skipped_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms @ dashboard_open"},
	{Name: "engine.prepare_waves_us", Unit: "us", Better: "lower", Moves: "first_update_p50_ms @ progressive_stream"},
	{Name: "engine.wave_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, first_update_p50_ms @ progressive_stream"},
	{Name: "engine.waves_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_ms @ progressive_stream"},
	{Name: "engine.worker_speedup", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms @ scan_groupby (one client, so the second core is the query's to use)"},

	{Name: "expr.compile_vec_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms @ dashboard_open (cache misses recompile)"},
	{Name: "expr.eval_ns_per_row", Unit: "ns", Better: "lower", Moves: "engine.fused_scan_ms, latency_p50_ms @ scan_groupby"},

	{Name: "hashtab.grouper_ns_per_key", Unit: "ns", Better: "lower", Moves: "engine.join_ms @ join_estimate; gus.self_ms @ scan_groupby"},

	{Name: "estimator.estimate_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, throughput_qps @ join_estimate; small @ scan_groupby"},
	{Name: "estimator.ns_per_sample_row", Unit: "ns", Better: "lower", Moves: "estimator.estimate_ms"},
	{Name: "estimator.lineage_terms", Unit: "count", Better: "lower", Moves: "estimator.estimate_ms"},
	{Name: "estimator.accum_add_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ progressive_stream only"},
	{Name: "estimator.accum_moments_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ progressive_stream only"},
	{Name: "estimator.finalize_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ progressive_stream only"},

	{Name: "online.run_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ progressive_stream"},
	{Name: "online.self_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms @ progressive_stream"},
	{Name: "online.fraction_scanned_p50", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms @ progressive_stream (seeded count)"},

	{Name: "relation.snapshot_us", Unit: "us", Better: "lower", Moves: "engine.fused_scan_ms"},
	{Name: "segment.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "segment.bytes_mapped", Unit: "bytes", Better: "lower", Moves: "server_peak_rss_mb everywhere"},
	{Name: "segment.write_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "tpch.generate_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "segment.scan_vs_resident_ratio", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms @ scan_groupby"},

	{Name: "obs.write_metrics_us", Unit: "us", Better: "lower", Moves: "none of the bounded metrics; cost baseline for aggregate observability"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a
// declaration list, so an undeclared or missing name is a run failure
// rather than a silently absent column.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}

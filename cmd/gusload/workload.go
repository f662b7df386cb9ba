package main

import (
	"encoding/json"
	"fmt"
)

// The four workloads' statements. They are the benchmark's definition:
// changing one re-bases every recorded number.
//
// scan_groupby's predicate keeps 4% of the sampled rows (the issue drafted
// l_quantity < 30.0, which keeps 58%): gusserve attaches a trace to every
// request, the trace's variance-diagnostics pass costs ~115 ns per sample
// row per aggregate, and at 58% the estimator was five times the scan. At
// 4% the scan kernel is the largest stage, which is the workload's point;
// join_estimate stays estimator- and join-bound.
const (
	sqlScanGroupBy = "SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue, SUM(l_quantity) AS qty, COUNT(*) AS n " +
		"FROM lineitem TABLESAMPLE (25 PERCENT) WHERE l_quantity < 3.0 GROUP BY l_linenumber"
	sqlJoinEstimate = "SELECT SUM(l_extendedprice*(1.0-l_discount)) FROM lineitem TABLESAMPLE (20 PERCENT), " +
		"orders TABLESAMPLE (50 PERCENT) WHERE l_orderkey = o_orderkey AND o_totalprice > 1000.0"
	sqlSynQ1 = "SELECT SUM(l_extendedprice*(1.0-l_discount)) FROM lineitem TABLESAMPLE BERNOULLI(1) " +
		"WHERE l_quantity < 24.0"
	sqlRangeLiteral = "SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT) WHERE l_orderkey < %d"
	sqlPointArgs    = "SELECT COUNT(*), SUM(o_totalprice) FROM orders TABLESAMPLE (50 PERCENT) WHERE o_custkey = ?"
	sqlProgressive  = "SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue FROM lineitem TABLESAMPLE (90 PERCENT) " +
		"WHERE l_quantity < 45.0"

	progressiveTarget = 0.003

	// rangeLiterals distinct literals cycle through the range_literal kind:
	// four times the 128-entry plan cache, so under LRU every one misses.
	rangeLiterals = 512

	// dashboardRate is the open loop's offered rate, frozen at about a
	// third of the closed-loop capacity measured once on the 2-core box
	// that recorded the first baseline (≈ 495 req/s for this mix with 2 clients).
	dashboardRate = 160.0
)

// request is one generated call. Body is what goes over HTTP; the
// remaining fields let the traced phase replay the same call in-process.
type request struct {
	Seq    int
	Kind   string
	Stream bool
	SQL    string
	Args   []int64
	Seed   uint64
	Body   []byte
}

// wireRequest is the POST body. Field order is fixed by the struct, so
// the same request always marshals to the same bytes.
type wireRequest struct {
	SQL         string  `json:"sql"`
	Args        []int64 `json:"args,omitempty"`
	Seed        uint64  `json:"seed"`
	TargetRelCI float64 `json:"targetRelCi,omitempty"`
}

// workload describes one traffic mix.
type workload struct {
	Name string
	Why  string
	// Rate > 0 makes the loop open: fixed-interval arrivals at Rate per
	// second, latency timed from each request's due time. Rate == 0 is a
	// closed loop of Clients callers that each wait for their reply.
	//
	// The closed loops run one client. A query already fans out over a
	// worker per core, so a second client puts four runnable threads on the
	// two cores the load generator shares; measured side by side, two
	// clients doubled the run-to-run spread of every timing (latency_p50_ms
	// 7%→14% on scan_groupby, 11%→19% on progressive_stream;
	// first_update_p50_ms 6%→23%) and made peak RSS depend on how two
	// joins happened to overlap.
	Rate    float64
	Clients int
	// CoverKind is the request kind whose first CoverK responses feed
	// ci_coverage and rel_ci_halfwidth_p50.
	CoverKind string
	CoverK    int
	// GateCoverage fails a run whose ci_coverage is below minCoverage. It
	// is set where the covered responses are independent samples given the
	// dataset, so that their pooled coverage estimates the intervals' real
	// coverage. Streams all read the same physical prefix, whose deviation
	// the prefix model prices but fresh seeds do not re-draw: their coverage
	// is one coin flip per dataset and is reported, not gated.
	GateCoverage bool
	// ReplayPerSecond sizes the traced phase: it replays the first
	// ReplayPerSecond × seconds requests in-process.
	ReplayPerSecond float64
	kinds           []string
}

var workloads = []workload{
	{
		Name:      "scan_groupby",
		Why:       "TPC-H Q1 shape: the fused scan+sample+select kernel over 1M mmap'd rows dominates; typed grouper and 7x3 single-relation estimates over the ~10k surviving rows are the rest. Closed loop, 1 client.",
		Clients:   1,
		CoverKind: "scan_groupby", CoverK: 200, GateCoverage: true,
		ReplayPerSecond: 8,
		kinds:           []string{"scan_groupby"},
	},
	{
		Name:      "join_estimate",
		Why:       "Paper's Query-1 shape: hash join build/probe plus two-relation Theorem-1 moments dominate, scans under a third; mirror image of scan_groupby. Closed loop, 1 client.",
		Clients:   1,
		CoverKind: "join_estimate", CoverK: 200, GateCoverage: true,
		ReplayPerSecond: 2.5,
		kinds:           []string{"join_estimate"},
	},
	{
		Name:      "dashboard_open",
		Why:       "Open loop at 160 req/s on 2 connections: synopsis-served, 512-literal plan-cache-miss and bound-args kinds of 1-5 ms; per-request fixed cost (HTTP, parse, plan, cache, trace) dominates.",
		Rate:      dashboardRate,
		Clients:   2,
		CoverKind: "range_literal", CoverK: 400, GateCoverage: true,
		ReplayPerSecond: 2 * rangeLiterals / 18.0,
		kinds:           []string{"syn_q1", "range_literal", "point_args"},
	},
	{
		Name:      "progressive_stream",
		Why:       "POST /query/stream to a 0.3% relative CI: wave execution, incremental Accum and per-wave NDJSON flush use the engine and estimator differently from one-shot. Closed loop, 1 client.",
		Clients:   1,
		CoverKind: "progressive", CoverK: 80,
		ReplayPerSecond: 1.2,
		kinds:           []string{"progressive"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix is the SplitMix64 finalizer: a bijective scrambler, so
// distinct (seed, stream, seq) triples give distinct request seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Streams keep warm-up and measured requests on disjoint seeds while the
// kinds and literals cycle identically, so warm-up leaves the caches in
// the state the measured window then keeps.
const (
	streamMeasured = 0
	streamWarmup   = 1
)

// generator makes a workload's request stream from the benchmark seed.
// The stream is a pure function of (seed, orders, stream, seq): the server
// sees nothing else of the seed.
type generator struct {
	w      workload
	seed   uint64
	orders int
}

func (g generator) at(stream, seq int) request {
	kind := g.w.kinds[seq%len(g.w.kinds)]
	r := request{Seq: seq, Kind: kind}
	r.Seed = splitmix(g.seed^splitmix(uint64(stream)<<32|uint64(seq))) >> 1 // JSON-safe in any decoder
	wire := wireRequest{}
	switch kind {
	case "scan_groupby":
		r.SQL = sqlScanGroupBy
	case "join_estimate":
		r.SQL = sqlJoinEstimate
	case "syn_q1":
		r.SQL = sqlSynQ1
	case "range_literal":
		j := (seq / len(g.w.kinds)) % rangeLiterals
		r.SQL = fmt.Sprintf(sqlRangeLiteral, g.rangeLiteral(j))
	case "point_args":
		customers := g.orders / 10
		if customers < 1 {
			customers = 1
		}
		r.SQL = sqlPointArgs
		r.Args = []int64{1 + int64(splitmix(g.seed^0xa1b2^uint64(seq))%uint64(customers))}
	case "progressive":
		r.SQL = sqlProgressive
		r.Stream = true
		wire.TargetRelCI = progressiveTarget
	}
	wire.SQL, wire.Args, wire.Seed = r.SQL, r.Args, r.Seed
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // a struct of strings and integers always marshals
	}
	r.Body = body
	return r
}

// rangeLiteral is the j-th of the distinct l_orderkey bounds: evenly
// stepped over roughly the first 1–8% of the key space, each jittered
// inside its own step by the seed, so literals differ between seeds but
// never collide within one.
func (g generator) rangeLiteral(j int) int {
	lo := g.orders / 125
	step := g.orders / 6900
	if step < 1 {
		step = 1
	}
	return lo + j*step + int(splitmix(g.seed^0x5eed^uint64(j))%uint64(step))
}

func (r request) path() string {
	if r.Stream {
		return "/query/stream"
	}
	return "/query"
}

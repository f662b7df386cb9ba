// Command gusserve exposes a gus database as a long-lived HTTP/JSON
// service, driving the parallel partitioned engine from concurrent
// clients. Tables come from files written by gusgen — -data opens every
// *.gusseg columnar segment in the directory (mmap, no parse) or, when
// there are none, loads every *.csv — or from the in-process TPC-H
// generator (-gen).
//
//	gusserve -gen 0.01 -addr :8080
//	curl -s localhost:8080/query -d '{"sql":"SELECT COUNT(*) FROM lineitem TABLESAMPLE (10 PERCENT)","seed":7}'
//
// Endpoints:
//
//	POST /query        — estimate a SQL aggregate query (body: QueryRequest)
//	POST /query/stream — online aggregation: NDJSON stream of refining
//	                     estimates, one line per partition wave, honoring
//	                     stop conditions and client disconnect
//	                     (body: StreamRequest)
//	GET  /tables       — registered tables: rows, column schema, storage
//	                     mode (resident heap vs mmap segment)
//	GET  /accuracy     — CI-calibration report: empirical coverage of the
//	                     estimator's confidence intervals (Wilson-scored,
//	                     overall and per query shape), fed by the shadow
//	                     auditor (-audit) and ObserveAccuracy
//	GET  /metrics      — Prometheus text exposition: every DB-level gus_*
//	                     metric (latency, rows scanned, sample fractions,
//	                     plan-cache hit rate, per-shape counters,
//	                     progressive stop reasons) plus the server's
//	                     gusserve_* HTTP counters; always on
//	GET  /healthz      — liveness probe
//	GET  /debug/…      — net/http/pprof profiles and the expvar page;
//	                     only with -pprof
//
// Every query request gets an ID (q000001, …) that appears in the
// structured request log line, the JSON response — including 4xx/5xx
// error bodies — each NDJSON stream frame, and — for EXPLAIN ANALYZE —
// the rendered trace.
//
// With -audit the server runs the shadow auditor: it periodically replays
// hot query shapes sampled-and-exact in the background (scan traffic
// capped by -audit-fraction per minute) and records whether each claimed
// confidence interval covered the exact answer; the results appear on
// /accuracy and as gus_audit_*/gus_ci_coverage_ratio metrics.
//
// Both query endpoints are wired to the request context: when the client
// disconnects, the engine stops scanning at the next partition boundary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	gus "github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/sqlparse"
)

// serverMetrics holds the HTTP-layer counters (the DB keeps its own
// registry, exposed alongside on /metrics). These replace the former
// gusserve_* expvars, which only existed behind -pprof.
type serverMetrics struct {
	reg      *obs.Registry
	queries  *obs.Counter
	rows     *obs.Counter
	requests *obs.CounterVec
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg:      reg,
		queries:  reg.Counter("gusserve_queries_served_total", "Query and stream requests answered (any outcome)."),
		rows:     reg.Counter("gusserve_rows_scanned_total", "Sample rows produced by served queries."),
		requests: reg.CounterVec("gusserve_http_requests_total", "HTTP requests by endpoint.", "endpoint"),
	}
}

// QueryRequest is the POST /query body. Zero values select defaults.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Args bind the SQL's positional `?` placeholders, in order: JSON
	// numbers without a fractional part bind as integers, others as
	// floats, strings as strings. The statement is served from the
	// server's plan cache, so repeated shapes skip parse/plan.
	Args []any `json:"args"`
	// Seed fixes the sampling RNG (default 1; 0 is a valid seed and is
	// honored). Identical requests return identical responses, regardless
	// of server parallelism.
	Seed *uint64 `json:"seed"`
	// Confidence is the two-sided CI level (default 0.95).
	Confidence float64 `json:"confidence"`
	// Chebyshev selects distribution-free intervals.
	Chebyshev bool `json:"chebyshev"`
	// Subsample activates §7 variance sub-sampling at about this many rows.
	Subsample int `json:"subsample"`
	// Workers overrides the server's worker-pool width for this query.
	Workers int `json:"workers"`
	// Exact additionally runs the query with sampling stripped (slow on
	// large data; for validation).
	Exact bool `json:"exact"`
	// Verbose includes the plan, rewrite trace and top GUS text.
	Verbose bool `json:"verbose"`
}

// options translates the request into query options.
func (req QueryRequest) options() []gus.Option {
	opts := []gus.Option{}
	if req.Seed != nil {
		opts = append(opts, gus.WithSeed(*req.Seed))
	}
	if req.Confidence != 0 {
		opts = append(opts, gus.WithConfidence(req.Confidence))
	}
	if req.Chebyshev {
		opts = append(opts, gus.WithInterval(gus.ChebyshevInterval))
	}
	if req.Subsample > 0 {
		opts = append(opts, gus.WithVarianceSubsampling(req.Subsample))
	}
	if req.Workers > 0 {
		opts = append(opts, gus.WithWorkers(req.Workers))
	}
	return opts
}

// StreamRequest is the POST /query/stream body: a QueryRequest (Exact and
// Verbose are ignored) plus online-aggregation stop conditions. With no
// stop condition set the stream runs to the complete scan.
type StreamRequest struct {
	QueryRequest
	// TargetRelCI stops once every item's CI half-width is at most this
	// fraction of its estimate (e.g. 0.01 for ±1%).
	TargetRelCI float64 `json:"targetRelCi"`
	// DeadlineMS stops at the first wave boundary after this many
	// milliseconds.
	DeadlineMS float64 `json:"deadlineMs"`
	// MaxFraction stops once this fraction of the data has been scanned.
	MaxFraction float64 `json:"maxFraction"`
	// WaveRows sets the input rows per wave (0 = default).
	WaveRows int `json:"waveRows"`
}

// StreamValue is one SELECT item inside a stream update. Estimator fields
// are pointers: null until the item is estimable (e.g. an AVG before any
// row survived), and relHalfWidth is null while the estimate is zero.
type StreamValue struct {
	Name         string   `json:"name"`
	Kind         string   `json:"kind"`
	Value        *float64 `json:"value"`
	Estimate     *float64 `json:"estimate"`
	StdErr       *float64 `json:"stdErr"`
	CILow        *float64 `json:"ciLow"`
	CIHigh       *float64 `json:"ciHigh"`
	Approximate  bool     `json:"approximate,omitempty"`
	RelHalfWidth *float64 `json:"relHalfWidth"`
	// Reliability grades the CI's own trustworthiness (A–D) from the
	// variance diagnostics; varianceRse is the relative standard error
	// of the variance estimate itself.
	Reliability string   `json:"reliability,omitempty"`
	VarianceRSE *float64 `json:"varianceRse,omitempty"`
}

// StreamUpdate is one NDJSON line of the /query/stream response. The
// top-level estimator fields mirror values[0].
type StreamUpdate struct {
	QueryID         string        `json:"queryId,omitempty"`
	ExplainText     string        `json:"explainText,omitempty"`
	Wave            int           `json:"wave"`
	FractionScanned float64       `json:"fractionScanned"`
	RowsScanned     int           `json:"rowsScanned"`
	SampleRows      int           `json:"sampleRows"`
	Final           bool          `json:"final"`
	Done            bool          `json:"done"`
	Reason          string        `json:"reason,omitempty"`
	ElapsedMS       float64       `json:"elapsedMs"`
	Estimate        *float64      `json:"estimate"`
	StdErr          *float64      `json:"stdErr"`
	CILow           *float64      `json:"ciLow"`
	CIHigh          *float64      `json:"ciHigh"`
	Values          []StreamValue `json:"values"`
	Error           string        `json:"error,omitempty"`
}

// ValueResponse mirrors gus.Value.
type ValueResponse struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Value       float64 `json:"value"`
	Estimate    float64 `json:"estimate"`
	StdErr      float64 `json:"stdErr"`
	CILow       float64 `json:"ciLow"`
	CIHigh      float64 `json:"ciHigh"`
	Approximate bool    `json:"approximate,omitempty"`
	// Reliability grades the CI's own trustworthiness (A–D) from the
	// variance diagnostics; varianceRse is the relative standard error
	// of the variance estimate itself. Always present on /query results
	// (the server traces every request), absent on exact replays.
	Reliability string   `json:"reliability,omitempty"`
	VarianceRSE *float64 `json:"varianceRse,omitempty"`
	Exact       *float64 `json:"exact,omitempty"`
}

// MarshalJSON writes the floats JSON cannot represent (NaN, ±Inf — a SUM
// over a column holding a NaN) as null, as stream updates do; finite
// values encode exactly as the plain struct would.
func (v ValueResponse) MarshalJSON() ([]byte, error) {
	type wire struct {
		Name        string   `json:"name"`
		Kind        string   `json:"kind"`
		Value       *float64 `json:"value"`
		Estimate    *float64 `json:"estimate"`
		StdErr      *float64 `json:"stdErr"`
		CILow       *float64 `json:"ciLow"`
		CIHigh      *float64 `json:"ciHigh"`
		Approximate bool     `json:"approximate,omitempty"`
		Reliability string   `json:"reliability,omitempty"`
		VarianceRSE *float64 `json:"varianceRse,omitempty"`
		Exact       *float64 `json:"exact,omitempty"`
	}
	return json.Marshal(wire{
		Name: v.Name, Kind: v.Kind,
		Value: fptr(v.Value), Estimate: fptr(v.Estimate), StdErr: fptr(v.StdErr),
		CILow: fptr(v.CILow), CIHigh: fptr(v.CIHigh),
		Approximate: v.Approximate, Reliability: v.Reliability,
		VarianceRSE: v.VarianceRSE, Exact: v.Exact,
	})
}

// GroupResponse is one GROUP BY bucket.
type GroupResponse struct {
	Key    string          `json:"key"`
	Values []ValueResponse `json:"values"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	QueryID    string          `json:"queryId"`
	SampleRows int             `json:"sampleRows"`
	ElapsedMS  float64         `json:"elapsedMs"`
	Values     []ValueResponse `json:"values,omitempty"`
	Groups     []GroupResponse `json:"groups,omitempty"`
	PlanText   string          `json:"planText,omitempty"`
	TraceText  string          `json:"traceText,omitempty"`
	GUSText    string          `json:"gusText,omitempty"`
	// ExplainText is the rendered execution trace, present for EXPLAIN
	// ANALYZE statements.
	ExplainText string `json:"explainText,omitempty"`
}

type server struct {
	db      *gus.DB
	metrics *serverMetrics
	nextID  atomic.Uint64
}

func newServer(db *gus.DB) *server {
	return &server{db: db, metrics: newServerMetrics()}
}

// queryID mints the per-request ID that ties the log line, the response
// and the trace together.
func (s *server) queryID() string {
	return fmt.Sprintf("q%06d", s.nextID.Add(1))
}

// shapeKey is the normalized statement text — the same key the DB's plan
// cache and per-shape metrics use — truncated for log lines.
func shapeKey(sql string) string {
	shape := sqlparse.Normalize(sql)
	if len(shape) > 120 {
		shape = shape[:117] + "..."
	}
	return shape
}

// logQuery emits the structured request log line.
func logQuery(endpoint, id, sql string, elapsed time.Duration, sampleRows int, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	if err != nil {
		log.Printf("%s id=%s shape=%q ms=%.3f outcome=%s err=%q",
			endpoint, id, shapeKey(sql), float64(elapsed.Microseconds())/1000, outcome, err.Error())
		return
	}
	log.Printf("%s id=%s shape=%q ms=%.3f outcome=%s sampleRows=%d",
		endpoint, id, shapeKey(sql), float64(elapsed.Microseconds())/1000, outcome, sampleRows)
}

// mux wires the server's routes. /metrics is always on; the pprof and
// expvar debug surface stays opt-in.
func (s *server) mux(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query/stream", s.handleQueryStream)
	mux.HandleFunc("/tables", s.handleTables)
	mux.HandleFunc("/accuracy", s.handleAccuracy)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if pprofOn {
		registerDebug(mux)
	}
	return mux
}

// handleAccuracy serves the DB's CI-calibration report: empirical
// coverage of claimed confidence intervals, overall and per shape, plus
// the shadow auditor's counters when -audit is on.
func (s *server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("GET only"))
		return
	}
	s.metrics.requests.With("/accuracy").Inc()
	writeJSON(w, http.StatusOK, s.db.AccuracySnapshot())
}

// handleMetrics serves the Prometheus text exposition: the DB's gus_*
// registry followed by the server's gusserve_* counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("GET only"))
		return
	}
	s.metrics.requests.With("/metrics").Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.db.WriteMetrics(w); err != nil {
		log.Printf("gusserve: write metrics: %v", err)
		return
	}
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		log.Printf("gusserve: write metrics: %v", err)
	}
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataDir = flag.String("data", "", "directory of CSV tables (from gusgen)")
		genSF   = flag.Float64("gen", 0, "generate TPC-H data at this scale factor instead of loading")
		genSeed = flag.Uint64("genseed", 42, "TPC-H generator seed")
		workers = flag.Int("workers", 0, "default worker-pool width per query (0 = GOMAXPROCS)")
		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof and expvar counters under /debug/ (profiling aid; do not enable on untrusted networks)")

		auditOn       = flag.Bool("audit", false, "run the shadow auditor: replay hot query shapes sampled+exact in the background and track CI coverage on /accuracy")
		auditFraction = flag.Float64("audit-fraction", 0.5, "with -audit: cap audit scan traffic at this fraction of total table rows per minute")
		auditInterval = flag.Duration("audit-interval", 15*time.Second, "with -audit: pause between audit attempts")
	)
	flag.Parse()

	db := gus.Open()
	switch {
	case *genSF > 0:
		if err := db.AttachTPCH(*genSF, *genSeed); err != nil {
			log.Fatalf("gusserve: %v", err)
		}
	case *dataDir != "":
		segs, err := filepath.Glob(filepath.Join(*dataDir, "*"+gus.SegmentExt))
		if err != nil {
			log.Fatalf("gusserve: %v", err)
		}
		if len(segs) > 0 {
			if err := db.AttachSegmentDir(*dataDir); err != nil {
				log.Fatalf("gusserve: %v", err)
			}
			for _, info := range db.Tables() {
				log.Printf("attached segment table %s (%d rows)", info.Name, info.Rows)
			}
			if _, err := os.Stat(filepath.Join(*dataDir, gus.SynopsisManifest)); err == nil {
				if err := db.LoadSynopses(*dataDir); err != nil {
					log.Fatalf("gusserve: %v", err)
				}
				for _, info := range db.Synopses() {
					log.Printf("loaded synopsis %s: %s (%d rows)", info.Name, info.GUS, info.Rows)
				}
			}
			break
		}
		paths, err := filepath.Glob(filepath.Join(*dataDir, "*.csv"))
		if err != nil {
			log.Fatalf("gusserve: %v", err)
		}
		if len(paths) == 0 {
			log.Fatalf("gusserve: no *%s or *.csv files in %s", gus.SegmentExt, *dataDir)
		}
		for _, p := range paths {
			name := strings.TrimSuffix(filepath.Base(p), ".csv")
			if err := db.LoadCSV(name, p); err != nil {
				log.Fatalf("gusserve: %v", err)
			}
			log.Printf("loaded table %s", name)
		}
	default:
		log.Fatal("gusserve: provide -data DIR or -gen SF")
	}
	db.SetWorkers(*workers)
	if *auditOn {
		if err := db.EnableAuditor(gus.AuditorOptions{
			Interval:             *auditInterval,
			MaxFractionPerMinute: *auditFraction,
		}); err != nil {
			log.Fatalf("gusserve: %v", err)
		}
		defer db.DisableAuditor()
		log.Printf("gusserve: shadow auditor on (interval %s, %.2g of rows/min)", *auditInterval, *auditFraction)
	}

	s := newServer(db)
	if *pprofOn {
		log.Print("gusserve: /debug/pprof and /debug/vars enabled")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.mux(*pprofOn),
		ReadHeaderTimeout: 5 * time.Second,
		// Queries are intentionally long-running, so the write timeout is
		// generous; idle keep-alive connections are reaped much sooner.
		WriteTimeout: 10 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	go func() {
		log.Printf("gusserve listening on %s (tables: %s)", *addr, strings.Join(db.TableNames(), ", "))
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("gusserve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("gusserve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("gusserve: shutdown: %v", err)
	}
}

// decodeArgs converts JSON argument values into bindable Go values:
// json.Number → int64 when integral, float64 otherwise; strings pass
// through; anything else (bool, null, nested) is rejected.
func decodeArgs(in []any) ([]any, error) {
	out := make([]any, len(in))
	for i, a := range in {
		switch x := a.(type) {
		case json.Number:
			if v, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
				out[i] = v
				continue
			}
			v, err := x.Float64()
			if err != nil {
				return nil, fmt.Errorf("args[%d]: bad number %q", i, x.String())
			}
			out[i] = v
		case string:
			out[i] = x
		default:
			return nil, fmt.Errorf("args[%d]: unsupported JSON type %T (bind numbers or strings)", i, a)
		}
	}
	return out, nil
}

// runRequest executes a request body through the DB's plan cache, binding
// req.Args when present — the server-side prepared-statement path. tr (may
// be nil) picks up the parse+plan span and the execution spans.
func (s *server) runRequest(ctx context.Context, req QueryRequest, exact bool, tr *gus.Trace) (*gus.Result, error) {
	st, err := s.db.PrepareCachedTrace(req.SQL, tr)
	if err != nil {
		return nil, err
	}
	args, err := decodeArgs(req.Args)
	if err != nil {
		return nil, err
	}
	for _, o := range req.options() {
		args = append(args, o)
	}
	if tr != nil {
		args = append(args, gus.Option(gus.WithTrace(tr)))
	}
	if exact {
		return st.Exact(ctx, args...)
	}
	return st.Query(ctx, args...)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("POST only"))
		return
	}
	// The ID is minted before the body is even parsed, so every error
	// response already carries the queryId the log line will show.
	qid := s.queryID()
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, qid, fmt.Errorf("bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, qid, fmt.Errorf("missing sql"))
		return
	}
	s.metrics.requests.With("/query").Inc()
	// The trace carries the request ID into EXPLAIN ANALYZE output; it is
	// allocated per request, so concurrent queries never share one.
	tr := &gus.Trace{QueryID: qid}
	start := time.Now()
	res, err := s.runRequest(r.Context(), req, false, tr)
	elapsed := time.Since(start)
	s.metrics.queries.Inc()
	if err != nil {
		logQuery("query", qid, req.SQL, elapsed, 0, err)
		writeError(w, http.StatusBadRequest, qid, err)
		return
	}
	s.metrics.rows.Add(uint64(res.SampleRows))
	resp := QueryResponse{
		QueryID:     qid,
		SampleRows:  res.SampleRows,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
		ExplainText: res.ExplainText,
	}
	if req.Verbose {
		resp.PlanText, resp.TraceText, resp.GUSText = res.PlanText, res.TraceText, res.GUSText
	}
	var exact *gus.Result
	if req.Exact {
		if exact, err = s.runRequest(r.Context(), req, true, nil); err != nil {
			err = fmt.Errorf("exact: %w", err)
			logQuery("query", qid, req.SQL, elapsed, res.SampleRows, err)
			writeError(w, http.StatusBadRequest, qid, err)
			return
		}
	}
	for i, v := range res.Values {
		rv := toValueResponse(v)
		if exact != nil && i < len(exact.Values) {
			rv.Exact = fptr(exact.Values[i].Value)
		}
		resp.Values = append(resp.Values, rv)
	}
	// Exact answers for grouped queries match by group key: the sampled
	// run can miss groups entirely and the two runs may order differently,
	// so positional matching would attach wrong truths.
	exactGroups := map[string][]gus.Value{}
	if exact != nil {
		for _, g := range exact.Groups {
			exactGroups[g.Key] = g.Values
		}
	}
	for _, g := range res.Groups {
		gr := GroupResponse{Key: g.Key}
		ev := exactGroups[g.Key]
		for i, v := range g.Values {
			rv := toValueResponse(v)
			if i < len(ev) {
				rv.Exact = fptr(ev[i].Value)
			}
			gr.Values = append(gr.Values, rv)
		}
		resp.Groups = append(resp.Groups, gr)
	}
	replyQuery(w, qid, req.SQL, elapsed, res.SampleRows, resp)
}

// replyQuery encodes a /query answer before the status line goes out,
// then logs the request and sends the answer. An answer that cannot be
// encoded is logged as an error and becomes a 500 error body carrying the
// query ID, not a 200 with a truncated body.
func replyQuery(w http.ResponseWriter, qid, sql string, elapsed time.Duration, sampleRows int, resp any) {
	body, err := encodeJSON(resp)
	if err != nil {
		err = fmt.Errorf("encode response: %w", err)
		logQuery("query", qid, sql, elapsed, sampleRows, err)
		writeError(w, http.StatusInternalServerError, qid, err)
		return
	}
	logQuery("query", qid, sql, elapsed, sampleRows, nil)
	writeBody(w, http.StatusOK, body)
}

// handleQueryStream runs a query as online aggregation and streams one
// NDJSON update per partition wave, flushing each line immediately. The
// stream is driven by the request context: a disconnected client cancels
// the query at the next wave boundary.
func (s *server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("POST only"))
		return
	}
	qid := s.queryID()
	var req StreamRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, qid, fmt.Errorf("bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, qid, fmt.Errorf("missing sql"))
		return
	}
	opts := req.options()
	if req.TargetRelCI > 0 {
		opts = append(opts, gus.WithTargetRelativeCI(req.TargetRelCI))
	}
	if req.DeadlineMS > 0 {
		opts = append(opts, gus.WithDeadline(time.Duration(req.DeadlineMS*float64(time.Millisecond))))
	}
	if req.MaxFraction > 0 {
		opts = append(opts, gus.WithMaxFraction(req.MaxFraction))
	}
	if req.WaveRows > 0 {
		opts = append(opts, gus.WithWaveRows(req.WaveRows))
	}

	s.metrics.requests.With("/query/stream").Inc()
	tr := &gus.Trace{QueryID: qid}
	st, err := s.db.PrepareCachedTrace(req.SQL, tr)
	if err != nil {
		writeError(w, http.StatusBadRequest, qid, err)
		return
	}
	args, err := decodeArgs(req.Args)
	if err != nil {
		writeError(w, http.StatusBadRequest, qid, err)
		return
	}
	for _, o := range opts {
		args = append(args, o)
	}
	args = append(args, gus.Option(gus.WithTrace(tr)))
	start := time.Now()
	ch, wait := st.QueryProgressive(r.Context(), args...)
	s.metrics.queries.Inc()

	// Hold the status line until the first update: a stream that dies
	// before producing anything (bad SQL, unknown table, an unsupported
	// mode like GROUP BY) gets a real 4xx with a plain JSON error, exactly
	// like /query — 422 when the query is valid but the mode cannot serve
	// it (gus.ErrUnsupported), 400 otherwise. Never a 500: these are all
	// client-fixable.
	first, ok := <-ch
	if !ok {
		err := wait()
		logQuery("stream", qid, req.SQL, time.Since(start), 0, err)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, gus.ErrUnsupported) {
				status = http.StatusUnprocessableEntity
			}
			writeError(w, status, qid, err)
			return
		}
		writeError(w, http.StatusInternalServerError, qid, fmt.Errorf("stream produced no updates"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	lastSample := 0
	for u, ok := first, true; ok; u, ok = <-ch {
		// Same unit as /query: sample rows the query produced so far.
		s.metrics.rows.Add(uint64(u.SampleRows - lastSample))
		lastSample = u.SampleRows
		if err := enc.Encode(toStreamUpdate(u, qid, start)); err != nil {
			// Client is gone; wait() below cancels the producer, so no
			// further waves are scanned for a dead connection.
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	err = wait()
	logQuery("stream", qid, req.SQL, time.Since(start), lastSample, err)
	if err != nil && r.Context().Err() == nil {
		// Mid-stream terminal error with the client still there: report
		// it as a final NDJSON line — the status line is long gone.
		if encErr := enc.Encode(StreamUpdate{QueryID: qid, Error: err.Error()}); encErr == nil && flusher != nil {
			flusher.Flush()
		}
	}
}

// fptr boxes finite floats and maps NaN/±Inf (not representable in JSON)
// to null.
func fptr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}


func toStreamUpdate(u gus.Update, qid string, start time.Time) StreamUpdate {
	out := StreamUpdate{
		QueryID:         qid,
		ExplainText:     u.ExplainText,
		Wave:            u.Wave,
		FractionScanned: u.FractionScanned,
		RowsScanned:     u.RowsScanned,
		SampleRows:      u.SampleRows,
		Final:           u.Final,
		Done:            u.Done,
		Reason:          u.Reason,
		ElapsedMS:       float64(time.Since(start).Microseconds()) / 1000,
		Estimate:        fptr(u.Estimate),
		StdErr:          fptr(u.StdErr),
		CILow:           fptr(u.CILow),
		CIHigh:          fptr(u.CIHigh),
	}
	for _, v := range u.Values {
		out.Values = append(out.Values, StreamValue{
			Name:         v.Name,
			Kind:         v.Kind,
			Value:        fptr(v.Value),
			Estimate:     fptr(v.Estimate),
			StdErr:       fptr(v.StdErr),
			CILow:        fptr(v.CILow),
			CIHigh:       fptr(v.CIHigh),
			Approximate:  v.Approximate,
			RelHalfWidth: fptr(v.RelHalfWidth),
			Reliability:  v.Reliability,
			VarianceRSE:  fptr(v.VarianceRSE),
		})
	}
	return out
}

func (s *server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("GET only"))
		return
	}
	type columnInfo struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	type synopsisInfo struct {
		Name       string  `json:"name"`
		GUS        string  `json:"gus"`
		Rate       float64 `json:"rate"`
		MinRate    float64 `json:"min_rate"`
		Rows       int     `json:"rows"`
		SourceRows int     `json:"source_rows"`
		Stale      bool    `json:"stale"`
		Bytes      int64   `json:"bytes"`
		Generation uint64  `json:"generation"`
	}
	type tableInfo struct {
		Name     string         `json:"name"`
		Rows     int            `json:"rows"`
		Columns  []columnInfo   `json:"columns"`
		Storage  string         `json:"storage"`
		Synopses []synopsisInfo `json:"synopses,omitempty"`
	}
	out := []tableInfo{}
	for _, info := range s.db.Tables() {
		ti := tableInfo{Name: info.Name, Rows: info.Rows, Storage: info.Storage}
		for _, c := range info.Columns {
			ti.Columns = append(ti.Columns, columnInfo{Name: c.Name, Type: columnTypeName(c.Type)})
		}
		for _, sy := range info.Synopses {
			ti.Synopses = append(ti.Synopses, synopsisInfo{
				Name:       sy.Name,
				GUS:        sy.GUS,
				Rate:       sy.Rate,
				MinRate:    sy.MinRate,
				Rows:       sy.Rows,
				SourceRows: sy.SourceRows,
				Stale:      sy.Stale,
				Bytes:      sy.Bytes,
				Generation: sy.Generation,
			})
		}
		out = append(out, ti)
	}
	writeJSON(w, http.StatusOK, out)
}

// columnTypeName renders a schema column type for the /tables response.
func columnTypeName(t gus.ColumnType) string {
	switch t {
	case gus.Int:
		return "int"
	case gus.Float:
		return "float"
	default:
		return "string"
	}
}

func toValueResponse(v gus.Value) ValueResponse {
	out := ValueResponse{
		Name:        v.Name,
		Kind:        v.Kind,
		Value:       v.Value,
		Estimate:    v.Estimate,
		StdErr:      v.StdErr,
		CILow:       v.CILow,
		CIHigh:      v.CIHigh,
		Approximate: v.Approximate,
		Reliability: v.Reliability,
	}
	if v.Reliability != "" {
		out.VarianceRSE = fptr(v.VarianceRSE)
	}
	return out
}

// registerDebug mounts the net/http/pprof handlers and the expvar page on
// the server's own mux (it never uses http.DefaultServeMux).
func registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
}

// writeJSON encodes v, then writes it with status; a value that fails to
// encode is answered with a 500 error body instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		log.Printf("gusserve: encode response: %v", err)
		writeError(w, http.StatusInternalServerError, "", fmt.Errorf("encode response: %w", err))
		return
	}
	writeBody(w, status, body)
}

// encodeJSON renders v as one newline-terminated JSON document.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeBody sends an encoded JSON document.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("gusserve: write response: %v", err)
	}
}

// writeError renders a JSON error body. qid ties the failure back to the
// request log line; it is "" (and omitted) only for failures that happen
// before a request ID exists — wrong method, non-query endpoints.
func writeError(w http.ResponseWriter, status int, qid string, err error) {
	body := map[string]string{"error": err.Error()}
	if qid != "" {
		body["queryId"] = qid
	}
	writeJSON(w, status, body)
}

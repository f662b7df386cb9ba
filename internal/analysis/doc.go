// Package analysis is gusvet: the repo's invariant-enforcing static
// analyzer suite, built on the standard library only (go/ast, go/types,
// go/importer) and driven by the `go vet -vettool` unit protocol.
//
// The engine's correctness story rests on invariants that unit tests can
// only sample: estimates are bit-identical across runs and worker
// counts, tracing costs nothing when off, pooled batches are never
// touched after release, the hot path never hashes strings, and
// cancellation reaches every partition walk. gusvet turns each one into
// a compile-time check:
//
//	determinism   no math/rand, time.Now/Since/Until, or map-iteration
//	              ordering on any path that can reach results, outside
//	              the whitelisted stochastic packages (stats, obs, audit,
//	              cmd/*, examples/*).
//	tracenil      exported *obs.Trace / *obs.Span methods begin with the
//	              nil-receiver guard; call sites never do eager
//	              formatting work that a nil receiver would discard.
//	poolcontract  no use of a *batch.Batch after Release() on the same
//	              path, and pool-derived buffers reach a put/ownership
//	              sink.
//	hotpathmaps   no map[string]T / map[float64]T in engine, estimator,
//	              batch, or hashtab — keyed state goes through
//	              internal/hashtab.
//	ctxflow       no context.Background()/TODO() below the gus.DB API
//	              layer, and partition walks use ops.ForEachPartCtx so
//	              cancellation propagates.
//	oracleimport  no ops.Rows/ops.Row, plan.Execute or
//	              sampling.Method.Apply in the module root, engine,
//	              online, audit or gusserve: the serial row-major stack
//	              is the test oracle, never a query path. No suppression
//	              directive exists.
//	annotations   the //gus: directive grammar itself (see below).
//
// # Annotation grammar
//
// A finding is suppressed by a line comment on the flagged line or the
// line immediately above it:
//
//	//gus:<directive> <reason>
//
// The directive set is closed — one per analyzer family:
//
//	//gus:nondet-ok   <reason>   determinism: clocks / map ranges
//	//gus:stringmap-ok <reason>  hotpathmaps: string-keyed maps
//	//gus:ctx-ok      <reason>   ctxflow: Background() / ForEachPart
//	//gus:pool-ok     <reason>   poolcontract: use-after-release
//	//gus:trace-ok    <reason>   tracenil: eager trace arguments
//
// The <reason> is mandatory: an annotation must say *why* the invariant
// does not apply ("single-entry map: the loop extracts the only key",
// "deadline early-stop is wall-clock by design"). The annotations
// analyzer flags empty reasons and unknown directives, so a suppression
// can never silently rot into `//gus:`-prefixed noise. Because each
// directive only silences its own analyzer, an annotation cannot
// accidentally blind an unrelated check.
//
// # Determinism heuristics
//
// checkMapRange flags a `range` over a map only when the loop body can
// leak iteration order. Recognized order-insensitive shapes — commutative
// integer accumulation, map stores keyed by the iteration key, deletes,
// max/min tracking, and the collect-then-sort idiom (the body builds
// entries with body-local scratch state, appends them to slices that are
// sorted later in the same function) — pass without annotation. The
// check is a lint heuristic, not a proof: expression-position calls are
// assumed side-effect-free and body-local pointers into outer state can
// evade it, which is the usual vet trade-off of catching the common bug
// without drowning the tree in annotations.
//
// # Driving the suite
//
//	go build -o bin/gusvet ./cmd/gusvet
//	go vet -vettool=$PWD/bin/gusvet ./...
//
// The binary implements the cmd/go vet-tool handshake (-V=full with a
// content hash of the executable, -flags, then one .cfg unit per
// package) and type-checks each unit from the export data the go
// command already built, so runs are incremental and cached like any
// other vet pass. `make lint` wraps the two commands.
//
// Analyzer tests live under testdata/src/<pkg> and use the analysistest
// convention: a "// want" comment holding a back-quoted regexp marks an
// expected finding, and RunTest checks both directions (every finding
// expected, every expectation found).
package analysis

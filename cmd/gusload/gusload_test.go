package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	candidates := []float64{50, 90, 95, 99}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // even the median has only 2.5 beyond it
		{20, 50},   // 10 beyond p50, 2 beyond p90
		{100, 90},  // exactly 10 beyond p90, 5 beyond p95
		{199, 90},  // 9.95 beyond p95
		{200, 95},  // exactly 10 beyond p95
		{999, 95},  // 9.99 beyond p99
		{1000, 99}, // exactly 10 beyond p99
	} {
		if got := highestPercentile(c.n, candidates); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	s := sortedCopy(v)
	if v[0] != 5 {
		t.Fatal("sortedCopy reordered its input")
	}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.8: 4, 0.95: 5, 1: 5} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	// Quartiles 2 and 4 around a median of 3.
	if got := spread(v); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	// Fewer than four values: the full range stands in.
	if got := spread([]float64{10, 11}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("spread of two = %v, want 0.1", got)
	}
}

// The open loop must charge a stall to the requests queued behind it: with
// one connection, a server that stalls 200 ms once delays every request
// due during the stall, and their latencies — timed from the due time —
// must say so.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()
	c := newCaller(srv.URL, 1)
	defer c.close()
	gen := func(seq int) request { return request{Seq: seq, Body: []byte("{}")} }
	const rate, n = 100.0, 30 // due every 10 ms, so ~20 requests fall inside the stall
	samples := runOpen(context.Background(), c, gen, 1, rate, n)
	if len(samples) != n {
		t.Fatalf("got %d samples, want %d", len(samples), n)
	}
	queued := 0
	for i, s := range samples {
		if s.Req.Seq != i {
			t.Fatalf("sample %d has seq %d: not in request order", i, s.Req.Seq)
		}
		if want := time.Duration(i) * 10 * time.Millisecond; s.Due != want {
			t.Errorf("request %d due at %v, want %v", i, s.Due, want)
		}
		if s.Sent < s.Due {
			t.Errorf("request %d sent %v before it was due", i, s.Due-s.Sent)
		}
		if i > 0 && s.Done-s.Due >= stall/4 {
			queued++
		}
	}
	// Request 1 was due at 10 ms and could not go out before 200 ms.
	if lat := samples[1].Done - samples[1].Due; lat < stall-20*time.Millisecond {
		t.Errorf("request 1 waited out a %v stall but was charged only %v", stall, lat)
	}
	if queued < 10 {
		t.Errorf("only %d requests behind the stall were charged for it", queued)
	}
	// Once the backlog drains, latency returns to the service time.
	if lat := samples[n-1].Done - samples[n-1].Due; lat > stall/2 {
		t.Errorf("last request still charged %v: backlog never drained", lat)
	}
}

func TestClosedLoopSequencesRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()
	c := newCaller(srv.URL, 2)
	defer c.close()
	gen := func(seq int) request { return request{Seq: seq, Body: []byte("{}")} }
	samples := runClosed(context.Background(), c, gen, 2, 100*time.Millisecond)
	if len(samples) < 4 {
		t.Fatalf("only %d requests in 100 ms", len(samples))
	}
	for i, s := range samples {
		if s.Req.Seq != i {
			t.Fatalf("sequence numbers have a gap at %d (got %d)", i, s.Req.Seq)
		}
		if s.Err != nil || s.Reply.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, s.Reply.Status, s.Err)
		}
	}
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	stream := func(w workload, seed uint64) []byte {
		g := generator{w: w, seed: seed, orders: 250000}
		var buf bytes.Buffer
		for seq := 0; seq < 2000; seq++ {
			r := g.at(streamMeasured, seq)
			buf.WriteString(r.path())
			buf.Write(r.Body)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	for _, w := range workloads {
		a, b, c := stream(w, 7), stream(w, 7), stream(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request streams", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request stream", w.Name)
		}
	}
	// Warm-up and measured requests never share a seed.
	w, _ := findWorkload("scan_groupby")
	g := generator{w: w, seed: 7, orders: 250000}
	if g.at(streamWarmup, 0).Seed == g.at(streamMeasured, 0).Seed {
		t.Error("warm-up and measured streams share request seeds")
	}
}

func TestRangeLiteralsOutnumberThePlanCache(t *testing.T) {
	w, _ := findWorkload("dashboard_open")
	for _, orders := range []int{5000, 250000} {
		g := generator{w: w, seed: 3, orders: orders}
		distinct := map[string]bool{}
		kinds := map[string]int{}
		for seq := 0; seq < 3*rangeLiterals; seq++ {
			r := g.at(streamMeasured, seq)
			kinds[r.Kind]++
			if r.Kind == "range_literal" {
				distinct[r.SQL] = true
			}
		}
		if len(distinct) != rangeLiterals {
			t.Errorf("orders=%d: %d distinct range_literal statements in one cycle, want %d", orders, len(distinct), rangeLiterals)
		}
		for _, k := range w.kinds {
			if kinds[k] != rangeLiterals {
				t.Errorf("orders=%d: kind %s sent %d times, want %d", orders, k, kinds[k], rangeLiterals)
			}
		}
	}
}

func TestValidateRejectsBadReplies(t *testing.T) {
	oneShot := request{Kind: "scan_groupby"}
	stream := request{Kind: "progressive", Stream: true}
	good := `{"queryId":"q1","elapsedMs":1.5,"values":[{"name":"s","estimate":10,"stdErr":1,"ciLow":8,"ciHigh":12}]}`
	frame := func(done bool, reason string, rel float64) string {
		return fmt.Sprintf(`{"done":%v,"reason":%q,"fractionScanned":0.5,"elapsedMs":3,"values":[{"name":"s","estimate":10,"stdErr":1,"ciLow":8,"ciHigh":12,"relHalfWidth":%g}]}`, done, reason, rel)
	}
	for _, c := range []struct {
		name string
		req  request
		rp   reply
		ok   bool
	}{
		{"good", oneShot, reply{Status: 200, Body: []byte(good)}, true},
		{"non-200", oneShot, reply{Status: 400, Body: []byte(`{"error":"bad"}`)}, false},
		{"NaN literal", oneShot, reply{Status: 200, Body: []byte(`{"values":[{"name":"s","estimate":NaN,"stdErr":1,"ciLow":8,"ciHigh":12}]}`)}, false},
		{"null estimate", oneShot, reply{Status: 200, Body: []byte(`{"values":[{"name":"s","estimate":null,"stdErr":1,"ciLow":8,"ciHigh":12}]}`)}, false},
		{"missing stdErr", oneShot, reply{Status: 200, Body: []byte(`{"values":[{"name":"s","estimate":10,"ciLow":8,"ciHigh":12}]}`)}, false},
		{"inverted CI", oneShot, reply{Status: 200, Body: []byte(`{"values":[{"name":"s","estimate":10,"stdErr":1,"ciLow":12,"ciHigh":8}]}`)}, false},
		{"estimate outside CI", oneShot, reply{Status: 200, Body: []byte(`{"values":[{"name":"s","estimate":20,"stdErr":1,"ciLow":8,"ciHigh":12}]}`)}, false},
		{"bad value in a group", oneShot, reply{Status: 200, Body: []byte(`{"groups":[{"key":"1","values":[{"name":"s","estimate":10,"stdErr":1,"ciLow":11,"ciHigh":12}]}]}`)}, false},
		{"no values", oneShot, reply{Status: 200, Body: []byte(`{"queryId":"q1"}`)}, false},
		{"truncated", oneShot, reply{Status: 200, Body: []byte(good[:40])}, false},
		{"stream met target", stream, reply{Status: 200, Body: []byte(frame(false, "", 0.5) + "\n" + frame(true, "target-ci", 0.0029) + "\n")}, true},
		{"stream complete above target", stream, reply{Status: 200, Body: []byte(frame(true, "complete", 0.01) + "\n")}, true},
		{"stream not done", stream, reply{Status: 200, Body: []byte(frame(false, "", 0.5) + "\n")}, false},
		{"stream stopped short of target", stream, reply{Status: 200, Body: []byte(frame(true, "deadline", 0.01) + "\n")}, false},
		{"stream ends in error frame", stream, reply{Status: 200, Body: []byte(frame(false, "", 0.5) + "\n" + `{"queryId":"q1","error":"boom"}` + "\n")}, false},
	} {
		_, err := validate(c.req, c.rp)
		if (err == nil) != c.ok {
			t.Errorf("%s: validate error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	nan := math.NaN()
	one := 1.0
	if err := checkValue(wireValue{Name: "s", Estimate: &nan, StdErr: &one, CILow: &one, CIHigh: &one}); err == nil {
		t.Error("checkValue accepted a NaN estimate")
	}
}

func TestCanonicalIgnoresOnlyVolatileFields(t *testing.T) {
	a := []byte(`{"queryId":"q000001","sampleRows":5,"elapsedMs":1.25,"values":[{"estimate":10}]}`)
	b := []byte(`{"queryId":"q000917","sampleRows":5,"elapsedMs":97.5e-1,"values":[{"estimate":10}]}`)
	c := []byte(`{"queryId":"q000001","sampleRows":5,"elapsedMs":1.25,"values":[{"estimate":10.000000001}]}`)
	if canonical(a) != canonical(b) {
		t.Error("bodies differing only in queryId and elapsedMs should be identical")
	}
	if canonical(a) == canonical(c) {
		t.Error("a different estimate must not be identical")
	}
}

func TestAccuracyMatchesExactByGroupAndPosition(t *testing.T) {
	exact := map[string][]float64{"1": {100, 10}, "2": {200, 20}}
	var acc accuracy
	acc.add([]estimate{
		{Group: "1", Est: 101, Lo: 95, Hi: 107},  // covers 100
		{Group: "1", Est: 12, Lo: 11, Hi: 13},    // misses 10
		{Group: "2", Est: 190, Lo: 180, Hi: 200}, // covers 200 (closed interval)
		{Group: "3", Est: 5, Lo: 4, Hi: 6},       // no exact answer: half-width only
	}, exact)
	if acc.total != 3 || acc.covered != 2 {
		t.Errorf("covered %d of %d, want 2 of 3", acc.covered, acc.total)
	}
	if len(acc.halfWidths) != 4 {
		t.Errorf("%d half-widths, want 4", len(acc.halfWidths))
	}
	if got := acc.halfWidths[0]; math.Abs(got-6.0/101) > 1e-12 {
		t.Errorf("relative half-width = %v, want 6/101", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 20, EndNS: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120}, // overruns the parent: clipped
		{ID: 4, Parent: 2, StartNS: 25, EndNS: 35},  // a grandchild does not touch the root
		{ID: 5, Parent: -1, StartNS: 200, EndNS: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		0: 100 - (50 - 10) - (100 - 90),
		1: 20,
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 60,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestPerRequestSumsOnlyDirectChildrenOfRequestRoots(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Request: 0, Name: "request.x", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Request: 0, Name: "engine.ExecuteBatch", StartNS: 0, EndNS: 40},
		{ID: 2, Parent: 0, Request: 0, Name: "estimator.EstimateBatch", StartNS: 40, EndNS: 50},
		{ID: 3, Parent: 0, Request: 0, Name: "estimator.EstimateBatch", StartNS: 50, EndNS: 65},
		{ID: 4, Parent: -1, Request: 0, Name: "probe.leaves", StartNS: 100, EndNS: 150},
		{ID: 5, Parent: 4, Request: 0, Name: "engine.ExecuteBatch.leaf", StartNS: 100, EndNS: 150},
		{ID: 6, Parent: -1, Request: 1, Name: "request.x", StartNS: 200, EndNS: 210},
		{ID: 7, Parent: 6, Request: 1, Name: "engine.ExecuteBatch", StartNS: 200, EndNS: 207},
	}
	est := perRequest(spans, 2, named("estimator.EstimateBatch"))
	if est.d[0] != 25 || !est.ran[0] || est.ran[1] {
		t.Errorf("estimate totals = %+v, want request 0 → 25 and request 1 not run", est)
	}
	if got := est.median(time.Nanosecond); got != 25 {
		t.Errorf("median over the requests that ran the stage = %v, want 25", got)
	}
	all := perRequest(spans, 2, func(string) bool { return true })
	if all.d[0] != 65 || all.d[1] != 7 || all.sum() != 72 {
		t.Errorf("stage totals = %+v, want 65 and 7 (probe spans excluded)", all)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	nan := math.NaN()
	for _, c := range []struct {
		d              metricDef
		base, next, sp float64
		want           string
	}{
		{lower, 100, 104, 0.03, "unchanged"},
		{lower, 100, 115, 0.03, "regressed"},
		{lower, 100, 90, 0.03, "improved"},
		{lower, 100, 98, 0.03, "unchanged"}, // better, but inside the noise floor
		{lower, 100, 115, 0.20, "unresolved"},
		{lower, 100, 80, 0.20, "unresolved"},
		{higher, 100, 85, 0.03, "regressed"},
		{higher, 100, 115, 0.03, "improved"},
		{lower, 100, 95, nan, "unchanged"}, // one base set: the bound stands in for the floor
		{lower, 100, 85, nan, "improved"},
	} {
		if got, _ := judge(c.d, c.base, c.next, c.sp); got != c.want {
			t.Errorf("judge(%s, %v→%v, spread %v) = %s, want %s", c.d.Name, c.base, c.next, c.sp, got, c.want)
		}
	}
}

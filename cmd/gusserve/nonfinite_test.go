package main

import (
	"bytes"
	"encoding/json"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	gus "github.com/sampling-algebra/gus"
)

// TestQueryNaNEstimateIsNull: a SUM over a column holding a NaN has a NaN
// estimate, which JSON cannot carry. The reply is still a 200 with a
// complete JSON body, the non-finite fields written as null.
func TestQueryNaNEstimateIsNull(t *testing.T) {
	db := gus.Open()
	tb, err := db.CreateTable("nanv", gus.Column{Name: "v", Type: gus.Float})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := float64(i)
		if i == 37 {
			v = math.NaN()
		}
		if err := tb.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(db)
	req := httptest.NewRequest(http.MethodPost, "/query",
		bytes.NewBufferString(`{"sql":"SELECT SUM(v) AS s FROM nanv","seed":3}`))
	rec := httptest.NewRecorder()
	s.handleQuery(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		QueryID string                       `json:"queryId"`
		Values  []map[string]json.RawMessage `json:"values"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("reply is not valid JSON (%v): %q", err, rec.Body.String())
	}
	if body.QueryID == "" || len(body.Values) != 1 {
		t.Fatalf("reply lacks queryId or values: %s", rec.Body.String())
	}
	if got := string(body.Values[0]["estimate"]); got != "null" {
		t.Fatalf("estimate = %s, want null", got)
	}
}

// TestReplyQueryEncodeFailure: an answer that cannot be encoded is a 500
// error body carrying the query ID, and its log line reports an error,
// not outcome=ok.
func TestReplyQueryEncodeFailure(t *testing.T) {
	var logs bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logs)
	defer log.SetOutput(prev)
	rec := httptest.NewRecorder()
	replyQuery(rec, "q-test", "SELECT 1", time.Millisecond, 0, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["queryId"] != "q-test" || e["error"] == "" {
		t.Fatalf("error body %q (%v), want error and queryId", rec.Body.String(), err)
	}
	line := logs.String()
	if !strings.Contains(line, "id=q-test") || strings.Contains(line, "outcome=ok") || !strings.Contains(line, "outcome=error") {
		t.Fatalf("log line %q must report outcome=error", line)
	}
}

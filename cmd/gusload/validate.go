package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
)

// wireValue is one estimate as gusserve renders it. Pointers distinguish
// "absent or null" (what a NaN becomes in JSON) from a real number.
type wireValue struct {
	Name         string   `json:"name"`
	Estimate     *float64 `json:"estimate"`
	StdErr       *float64 `json:"stdErr"`
	CILow        *float64 `json:"ciLow"`
	CIHigh       *float64 `json:"ciHigh"`
	RelHalfWidth *float64 `json:"relHalfWidth"`
	Exact        *float64 `json:"exact"`
}

type wireGroup struct {
	Key    string      `json:"key"`
	Values []wireValue `json:"values"`
}

// wireResponse covers both the POST /query reply and one NDJSON frame of
// POST /query/stream.
type wireResponse struct {
	QueryID   string      `json:"queryId"`
	ElapsedMS float64     `json:"elapsedMs"`
	Values    []wireValue `json:"values"`
	Groups    []wireGroup `json:"groups"`
	Done      bool        `json:"done"`
	Reason    string      `json:"reason"`
	Error     string      `json:"error"`
}

// estimate is one validated interval, keyed so the exact answer fetched
// in set-up can be matched to it ("" for ungrouped items).
type estimate struct {
	Group        string
	Est, Lo, Hi  float64
	RelHalfWidth float64
}

func finite(p *float64) bool {
	return p != nil && !math.IsNaN(*p) && !math.IsInf(*p, 0)
}

// checkValue enforces what every estimate must satisfy: all estimator
// fields present and finite, and the interval ordered around the estimate.
func checkValue(v wireValue) error {
	if !finite(v.Estimate) || !finite(v.StdErr) || !finite(v.CILow) || !finite(v.CIHigh) {
		return fmt.Errorf("value %q: non-finite estimator field", v.Name)
	}
	if !(*v.CILow <= *v.Estimate && *v.Estimate <= *v.CIHigh) {
		return fmt.Errorf("value %q: interval [%g, %g] does not bracket estimate %g", v.Name, *v.CILow, *v.CIHigh, *v.Estimate)
	}
	if *v.StdErr < 0 {
		return fmt.Errorf("value %q: negative stdErr %g", v.Name, *v.StdErr)
	}
	return nil
}

// checkResponse validates a decoded /query reply or final stream frame
// and flattens it to its estimates.
func checkResponse(r wireResponse) ([]estimate, error) {
	if r.Error != "" {
		return nil, fmt.Errorf("server error: %s", r.Error)
	}
	if len(r.Values) == 0 && len(r.Groups) == 0 {
		return nil, fmt.Errorf("response carries no values")
	}
	var out []estimate
	add := func(group string, vs []wireValue) error {
		for _, v := range vs {
			if err := checkValue(v); err != nil {
				return err
			}
			out = append(out, estimate{Group: group, Est: *v.Estimate, Lo: *v.CILow, Hi: *v.CIHigh})
			if v.RelHalfWidth != nil {
				out[len(out)-1].RelHalfWidth = *v.RelHalfWidth
			}
		}
		return nil
	}
	if err := add("", r.Values); err != nil {
		return nil, err
	}
	for _, g := range r.Groups {
		if err := add(g.Key, g.Values); err != nil {
			return nil, fmt.Errorf("group %q: %w", g.Key, err)
		}
	}
	return out, nil
}

// reply is what one HTTP exchange produced, before validation.
type reply struct {
	Status int
	Body   []byte
	Frames int // NDJSON lines for a stream, 1 otherwise
}

// verdict is a validated reply.
type verdict struct {
	Estimates []estimate
	ElapsedMS float64
}

// validate checks one reply against the request that caused it. Any error
// counts the request as failed.
func validate(req request, rp reply) (verdict, error) {
	if rp.Status != http.StatusOK {
		return verdict{}, fmt.Errorf("status %d: %s", rp.Status, bytes.TrimSpace(rp.Body))
	}
	if !req.Stream {
		var r wireResponse
		if err := json.Unmarshal(rp.Body, &r); err != nil {
			return verdict{}, fmt.Errorf("bad JSON: %w", err)
		}
		ests, err := checkResponse(r)
		return verdict{Estimates: ests, ElapsedMS: r.ElapsedMS}, err
	}
	lines := bytes.Split(bytes.TrimRight(rp.Body, "\n"), []byte("\n"))
	var last wireResponse
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return verdict{}, fmt.Errorf("bad final frame: %w", err)
	}
	if !last.Done {
		return verdict{}, fmt.Errorf("stream ended without done:true")
	}
	ests, err := checkResponse(last)
	if err != nil {
		return verdict{}, err
	}
	if last.Reason != "complete" {
		for _, e := range ests {
			if !(e.RelHalfWidth <= progressiveTarget) {
				return verdict{}, fmt.Errorf("stream stopped (%s) at relHalfWidth %g above target %g", last.Reason, e.RelHalfWidth, progressiveTarget)
			}
		}
	}
	return verdict{Estimates: ests, ElapsedMS: last.ElapsedMS}, nil
}

// volatileFields are the only parts of a body allowed to differ between
// two sends of the same request: the per-request ID and wall-clock times.
var volatileFields = regexp.MustCompile(`"(queryId":"[^"]*"|elapsedMs":[-+0-9.eE]+)`)

// canonical hashes a body with its volatile fields blanked: seeded
// answers must not depend on load, timing or worker count.
func canonical(body []byte) [sha256.Size]byte {
	return sha256.Sum256(volatileFields.ReplaceAll(body, nil))
}

// accuracy folds the covered responses into the two accuracy metrics:
// the share of intervals containing the exact answer, and the median
// relative half-width actually delivered.
type accuracy struct {
	covered, total int
	halfWidths     []float64
}

func (a *accuracy) add(ests []estimate, exact map[string][]float64) {
	idx := map[string]int{}
	for _, e := range ests {
		i := idx[e.Group]
		idx[e.Group] = i + 1
		if truth, ok := exact[e.Group]; ok && i < len(truth) {
			a.total++
			if e.Lo <= truth[i] && truth[i] <= e.Hi {
				a.covered++
			}
		}
		if e.Est != 0 {
			a.halfWidths = append(a.halfWidths, (e.Hi-e.Lo)/(2*math.Abs(e.Est)))
		}
	}
}

func (a *accuracy) coverage() float64 {
	if a.total == 0 {
		return math.NaN()
	}
	return float64(a.covered) / float64(a.total)
}

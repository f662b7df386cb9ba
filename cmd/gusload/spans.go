package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Spans of one request share Request; Parent is
// the ID of the span that caused this one (-1 for a request's root).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Request int                `json:"request"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory; nothing is written until the replay is
// over, so recording costs two clock reads and an append per span.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, request int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) { r.spans[id].EndNS = int64(time.Since(r.t0)) }

func (r *recorder) count(id int, key string, v float64) {
	if r.spans[id].Counts == nil {
		r.spans[id].Counts = map[string]float64{}
	}
	r.spans[id].Counts[key] = v
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// traceFile is what trace.<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

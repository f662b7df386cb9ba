package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's timeline, as offsets from the window start.
// Bodies are kept and validated after the window closes, so parsing
// replies never becomes think time between a client's requests.
type sample struct {
	Req request
	// Due is when the request was scheduled to go out: the open loop's
	// arrival time; in a closed loop simply when the client got to it.
	Due, Sent, First, Done time.Duration
	Reply                  reply
	Err                    error // transport failure
}

// caller issues requests against one gusserve instance.
type caller struct {
	http *http.Client
	base string
}

func newCaller(base string, conns int) *caller {
	return &caller{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
	}
}

func (c *caller) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole reply. first is when the first
// answer was complete: the first NDJSON frame of a stream, the whole body
// of a one-shot reply.
func (c *caller) do(ctx context.Context, req request) (rp reply, first time.Time, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+req.path(), bytes.NewReader(req.Body))
	if err != nil {
		return reply{}, time.Time{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return reply{}, time.Time{}, err
	}
	defer resp.Body.Close()
	rp.Status = resp.StatusCode
	if !req.Stream || resp.StatusCode != http.StatusOK {
		rp.Body, err = io.ReadAll(resp.Body)
		rp.Frames = 1
		return rp, time.Now(), err
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			if rp.Frames == 0 {
				first = time.Now()
			}
			rp.Frames++
			rp.Body = append(rp.Body, line...)
		}
		if rerr == io.EOF {
			return rp, first, nil
		}
		if rerr != nil {
			return rp, first, rerr
		}
	}
}

// timed runs one request and records its timeline against t0.
func (c *caller) timed(ctx context.Context, req request, t0, due time.Time) sample {
	s := sample{Req: req, Due: due.Sub(t0)}
	sent := time.Now()
	rp, first, err := c.do(ctx, req)
	done := time.Now()
	if first.IsZero() {
		first = done
	}
	s.Sent, s.First, s.Done = sent.Sub(t0), first.Sub(t0), done.Sub(t0)
	s.Reply, s.Err = rp, err
	return s
}

// bySeq merges per-worker sample lists into request order.
func bySeq(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Req.Seq < all[j].Req.Seq })
	return all
}

// runClosed drives a closed loop: each of clients callers sends its next
// request only after the previous reply, drawing sequence numbers from a
// shared counter, until window has passed. Requests in flight when the
// window closes are completed and counted.
func runClosed(ctx context.Context, c *caller, gen func(seq int) request, clients int, window time.Duration) []sample {
	var next atomic.Int64
	parts := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Now()
				if now.Sub(t0) >= window {
					return
				}
				seq := int(next.Add(1) - 1)
				parts[w] = append(parts[w], c.timed(ctx, gen(seq), t0, now))
			}
		}(w)
	}
	wg.Wait()
	return bySeq(parts)
}

// runOpen drives an open loop: request i is due at t0 + i/rate whatever
// the server is doing, conns connections carry them, and every latency is
// timed from the due time. When all connections are busy past a due time
// the request goes out late and the wait is charged to it — a stall shows
// up in the requests queued behind it, not only in the one that stalled.
func runOpen(ctx context.Context, c *caller, gen func(seq int) request, conns int, rate float64, n int) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	parts := make([][]sample, conns)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				seq := int(next.Add(1) - 1)
				if seq >= n {
					return
				}
				due := t0.Add(time.Duration(seq) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				parts[w] = append(parts[w], c.timed(ctx, gen(seq), t0, due))
			}
		}(w)
	}
	wg.Wait()
	return bySeq(parts)
}

package estimator

// Reference implementations the order-aware kernel is checked against:
// the historical string-keyed, map-based group-by-lineage accumulators.
// They materialize one encoded key per row and know nothing about order,
// spans aside — slow, obviously right, test-only.

import (
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// projectKey encodes row i's lineage projected onto s, equal to
// lineage.Vector.ProjectKey on the equivalent row-major vector.
func projectKey(lin [][]lineage.TupleID, i int, s lineage.Set) string {
	buf := make([]byte, 0, 8*s.Len())
	for slot := range lin {
		if s.Has(slot) {
			buf = lineage.AppendID(buf, lin[slot][i])
		}
	}
	return string(buf)
}

// groupShard is one span's group sums keyed by projected lineage, with
// keys remembered in first-seen order.
type groupShard struct {
	keys []string
	fsum map[string]float64
	gsum map[string]float64 // nil for plain (f·f) moments
}

func shardFor(span ops.Span, key func(i int) string, fs, gs []float64) groupShard {
	sh := groupShard{fsum: map[string]float64{}}
	if gs != nil {
		sh.gsum = map[string]float64{}
	}
	for i := span.Lo; i < span.Hi; i++ {
		k := key(i)
		if _, seen := sh.fsum[k]; !seen {
			sh.keys = append(sh.keys, k)
		}
		sh.fsum[k] += fs[i]
		if gs != nil {
			sh.gsum[k] += gs[i]
		}
	}
	return sh
}

// mergeShards combines span shards in span order and returns
// Σ_groups (Σf)(Σg), group totals accumulated and combined in first-seen
// order.
func mergeShards(shards []groupShard, bilinear bool) float64 {
	slot := map[string]int{}
	var fTot, gTot []float64
	for _, sh := range shards {
		for _, k := range sh.keys {
			s, ok := slot[k]
			if !ok {
				s = len(fTot)
				slot[k] = s
				fTot = append(fTot, 0)
				gTot = append(gTot, 0)
			}
			fTot[s] += sh.fsum[k]
			if bilinear {
				gTot[s] += sh.gsum[k]
			}
		}
	}
	var acc float64
	for s, f := range fTot {
		if bilinear {
			acc += f * gTot[s]
		} else {
			acc += f * f
		}
	}
	return acc
}

// oracleMoments is the Y_S vector by string-keyed maps: Σf (and Σg) summed
// per span then across spans, one shard per span per mask. One span over
// the whole sample is the historical serial path (momentsSerial); fixed
// partitions are the historical sharded path.
func oracleMoments(n int, lin [][]lineage.TupleID, fs, gs []float64, spans []ops.Span) []float64 {
	out := make([]float64, 1<<uint(n))
	var totF, totG float64
	for _, sp := range spans {
		var pf, pg float64
		for i := sp.Lo; i < sp.Hi; i++ {
			pf += fs[i]
			if gs != nil {
				pg += gs[i]
			}
		}
		totF += pf
		totG += pg
	}
	if gs != nil {
		out[0] = totF * totG
	} else {
		out[0] = totF * totF
	}
	for m := 1; m < len(out); m++ {
		set := lineage.Set(m)
		shards := make([]groupShard, len(spans))
		for p, sp := range spans {
			shards[p] = shardFor(sp, func(i int) string { return projectKey(lin, i, set) }, fs, gs)
		}
		out[m] = mergeShards(shards, gs != nil)
	}
	return out
}

// oracleStats is the diagnostics pass by string maps: group rows by their
// full lineage projection, total f within each group as its span partials
// (row-order sums from zero) added in span order, and sum the squares and
// fourth powers in first-seen order.
func oracleStats(lin [][]lineage.TupleID, fs []float64, spans []ops.Span) (groups int, sum2, sum4 float64) {
	key := func(i int) string { return projectKey(lin, i, lineage.Full(len(lin))) }
	idx := map[string]int{}
	var totals []float64
	for _, sp := range spans {
		sh := shardFor(sp, key, fs, nil)
		for _, k := range sh.keys {
			j, ok := idx[k]
			if !ok {
				j = len(totals)
				idx[k] = j
				totals = append(totals, 0)
			}
			totals[j] += sh.fsum[k]
		}
	}
	for _, t := range totals {
		t2 := t * t
		sum2 += t2
		sum4 += t2 * t2
	}
	return len(totals), sum2, sum4
}

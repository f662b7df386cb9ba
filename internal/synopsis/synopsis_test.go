package synopsis

import (
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
)

// makeTable builds an n-row source with ids 0..n-1, an int value column
// and a three-value stratum column.
func makeTable(t testing.TB, name string, n int) *relation.Relation {
	t.Helper()
	schema, err := relation.NewSchema(
		relation.Column{Name: "v", Kind: relation.KindInt},
		relation.Column{Name: "grp", Kind: relation.KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relation.New(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		tup := relation.Tuple{relation.Int(int64(i)), relation.String_(groups[i%3])}
		if err := rel.AppendWithID(lineage.TupleID(i), tup); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// directMembers computes the coordinated membership set by brute force.
func directMembers(s *Synopsis, src *relation.Relation) map[uint64]bool {
	out := map[uint64]bool{}
	for i := 0; i < src.Len(); i++ {
		id := src.ID(i)
		if s.keeps(id, src.Row(i)) {
			out[uint64(id)] = true
		}
	}
	return out
}

func synMembers(s *Synopsis) map[uint64]bool {
	out := map[uint64]bool{}
	for i := 0; i < s.Rel.Len(); i++ {
		out[uint64(s.Rel.ID(i))] = true
	}
	return out
}

func sameSet(t *testing.T, got, want map[uint64]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("set sizes differ: got %d want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("id %d missing", id)
		}
	}
}

func TestBuildUniformMatchesCoordinatedHash(t *testing.T) {
	src := makeTable(t, "tbl", 5000)
	s, err := Build(src, Spec{Name: "syn", Rate: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.BuiltRows != src.Len() {
		t.Fatalf("BuiltRows = %d, want %d", s.BuiltRows, src.Len())
	}
	sameSet(t, synMembers(s), directMembers(s, src))
	if n := s.Rel.Len(); n < 300 || n > 700 {
		t.Fatalf("10%% of 5000 rows gave %d (wildly off)", n)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildStratifiedRates(t *testing.T) {
	src := makeTable(t, "tbl", 6000)
	s, err := Build(src, Spec{
		Name: "syn", Rate: 0.05,
		StratCol: "grp",
		Rates:    map[string]float64{"A": 0.5, "B": 0.02},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.MinRate != 0.02 {
		t.Fatalf("MinRate = %v, want 0.02", s.MinRate)
	}
	sameSet(t, synMembers(s), directMembers(s, src))
	// Stratum A at 50% must dominate the sample.
	counts := map[string]int{}
	gi, _ := src.Schema().Index("grp")
	for i := 0; i < s.Rel.Len(); i++ {
		counts[s.Rel.Row(i)[gi].AsString()]++
	}
	if counts["A"] <= counts["B"] || counts["A"] <= counts["C"] {
		t.Fatalf("boosted stratum not dominant: %v", counts)
	}
	// Bytes reads the typed string column; boxed rows are the oracle.
	want := int64(s.Rel.Len()) * 16 // lineage ids and v
	for i := 0; i < s.Rel.Len(); i++ {
		want += int64(len(s.Rel.Row(i)[gi].AsString())) + 16
	}
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOnAppendMaintains(t *testing.T) {
	src := makeTable(t, "tbl", 2000)
	s, err := Build(src, Spec{Name: "syn", Rate: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Append 500 more rows, maintaining the synopsis per append.
	for i := 2000; i < 2500; i++ {
		tup := relation.Tuple{relation.Int(int64(i)), relation.String_("A")}
		if err := src.AppendWithID(lineage.TupleID(i), tup); err != nil {
			t.Fatal(err)
		}
		if err := s.OnAppend(lineage.TupleID(i), tup, src.Len()); err != nil {
			t.Fatal(err)
		}
	}
	if s.BuiltRows != 2500 {
		t.Fatalf("BuiltRows = %d, want 2500", s.BuiltRows)
	}
	// The maintained synopsis must equal a from-scratch build: coordinated
	// membership is a pure function of (seed, id).
	fresh, err := Build(src, Spec{Name: "syn2", Rate: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, synMembers(s), synMembers(fresh))
}

func TestOnAppendLeavesStaleAlone(t *testing.T) {
	src := makeTable(t, "tbl", 1000)
	s, err := Build(src, Spec{Name: "syn", Rate: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two out-of-band appends the synopsis never hears about...
	for i := 1000; i < 1002; i++ {
		if err := src.AppendWithID(lineage.TupleID(i), relation.Tuple{relation.Int(int64(i)), relation.String_("A")}); err != nil {
			t.Fatal(err)
		}
	}
	// ...then a maintained one: the synopsis must stay stale, not silently
	// skip the gap.
	if err := src.AppendWithID(1002, relation.Tuple{relation.Int(1002), relation.String_("A")}); err != nil {
		t.Fatal(err)
	}
	if err := s.OnAppend(1002, relation.Tuple{relation.Int(1002), relation.String_("A")}, src.Len()); err != nil {
		t.Fatal(err)
	}
	if s.BuiltRows != 1000 {
		t.Fatalf("stale synopsis advanced BuiltRows to %d", s.BuiltRows)
	}
	if d := s.Subsumes(&sampling.Bernoulli{Rel: "tbl", P: 0.1}, "tbl", src.Len()); d.OK || d.Reason != "stale" {
		t.Fatalf("stale synopsis still subsumes: %+v", d)
	}
	// CatchUp repairs it.
	if err := s.CatchUp(src, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(src, Spec{Name: "syn2", Rate: 0.2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, synMembers(s), synMembers(fresh))
}

func TestVerifyCatchesWrongManifest(t *testing.T) {
	src := makeTable(t, "tbl", 3000)
	s, err := Build(src, Spec{Name: "syn", Rate: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Manifest()
	m.Rate = 0.01 // claim a much sparser sample than the segment holds
	wrong, err := FromManifest(m, s.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.Verify(); err == nil {
		t.Fatal("Verify accepted a manifest claiming rate 0.01 over a rate-0.5 segment")
	} else if !strings.Contains(err.Error(), "membership hash") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSubsumesRules(t *testing.T) {
	src := makeTable(t, "tbl", 1000)
	uni, err := Build(src, Spec{Name: "u", Rate: 0.1, Seed: 99}, 1)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := Build(src, Spec{Name: "s", Rate: 0.1, Seed: 99, StratCol: "grp", Rates: map[string]float64{"A": 0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := src.Len()
	lhGood, _ := sampling.NewLineageHash(99, map[string]float64{"tbl": 0.05})
	lhBadSeed, _ := sampling.NewLineageHash(98, map[string]float64{"tbl": 0.05})
	lhTwoRel, _ := sampling.NewLineageHash(99, map[string]float64{"tbl": 0.05, "other": 0.5})
	cases := []struct {
		name   string
		syn    *Synopsis
		m      sampling.Method
		alias  string
		len    int
		ok     bool
		reason string
		nested bool
	}{
		{"bernoulli under rate", uni, &sampling.Bernoulli{Rel: "tbl", P: 0.05}, "tbl", n, true, "", false},
		{"bernoulli at rate", uni, &sampling.Bernoulli{Rel: "tbl", P: 0.1}, "tbl", n, true, "", false},
		{"bernoulli above rate", uni, &sampling.Bernoulli{Rel: "tbl", P: 0.2}, "tbl", n, false, "rate", false},
		{"bernoulli other alias", uni, &sampling.Bernoulli{Rel: "x", P: 0.05}, "tbl", n, false, "method", false},
		{"wor never", uni, &sampling.WOR{Rel: "tbl", K: 10}, "tbl", n, false, "method", false},
		{"system never", uni, &sampling.Block{Rel: "tbl", BlockSize: 32, P: 0.05}, "tbl", n, false, "method", false},
		{"stale", uni, &sampling.Bernoulli{Rel: "tbl", P: 0.05}, "tbl", n + 1, false, "stale", false},
		{"coordinated matching seed", uni, lhGood, "tbl", n, true, "", true},
		{"coordinated wrong seed", uni, lhBadSeed, "tbl", n, false, "seed", false},
		{"coordinated multi-rel", uni, lhTwoRel, "tbl", n, false, "method", false},
		{"stratified bernoulli nests", strat, &sampling.Bernoulli{Rel: "tbl", P: 0.05}, "tbl", n, true, "", true},
		{"stratified above min rate", strat, &sampling.Bernoulli{Rel: "tbl", P: 0.3}, "tbl", n, false, "rate", false},
	}
	for _, tc := range cases {
		d := tc.syn.Subsumes(tc.m, tc.alias, tc.len)
		if d.OK != tc.ok || (!tc.ok && d.Reason != tc.reason) || (tc.ok && d.Nested != tc.nested) {
			t.Errorf("%s: got %+v, want ok=%v reason=%q nested=%v", tc.name, d, tc.ok, tc.reason, tc.nested)
		}
		if err := Oracle(tc.syn, tc.m, tc.alias, src); err != nil {
			t.Errorf("%s: oracle refutes the decision: %v", tc.name, err)
		}
	}
}

// TestNestedServesExactCoordinatedSample pins the headline guarantee: the
// rate-p subset of a coordinated rate-q synopsis is row-for-row the
// coordinated rate-p sample of the base table.
func TestNestedServesExactCoordinatedSample(t *testing.T) {
	src := makeTable(t, "tbl", 4096)
	s, err := Build(src, Spec{Name: "syn", Rate: 0.2, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.05
	served := map[uint64]bool{}
	for i := 0; i < s.Rel.Len(); i++ {
		id := uint64(s.Rel.ID(i))
		if stats.HashID(s.HashSeed, id) < p {
			served[id] = true
		}
	}
	direct := map[uint64]bool{}
	for i := 0; i < src.Len(); i++ {
		id := uint64(src.ID(i))
		if stats.HashID(s.HashSeed, id) < p {
			direct[id] = true
		}
	}
	sameSet(t, served, direct)
}

// FuzzSubsumption drives random (query method, synopsis) pairs through
// the fast Subsumes decision and asserts the brute-force Oracle cannot
// refute any accepted one. Completeness (hits that should have been
// taken) is pinned by TestSubsumesRules; the fuzz direction is soundness,
// where a bug silently breaks estimates rather than just performance.
func FuzzSubsumption(f *testing.F) {
	f.Add(uint64(1), uint64(1), 0.05, 0.1, uint8(0), false)
	f.Add(uint64(3), uint64(9), 0.2, 0.1, uint8(1), true)
	f.Add(uint64(5), uint64(5), 0.1, 0.1, uint8(2), false)
	src := makeTable(f, "tbl", 4096)
	f.Fuzz(func(t *testing.T, qSeed, synSeed uint64, p, q float64, kind uint8, strat bool) {
		if !(p >= 0 && p <= 1) || !(q > 0 && q <= 1) {
			t.Skip()
		}
		spec := Spec{Name: "syn", Rate: q, Seed: synSeed}
		if strat {
			spec.StratCol = "grp"
			spec.Rates = map[string]float64{"A": q, "B": q / 2}
		}
		s, err := Build(src, spec, 1)
		if err != nil {
			t.Skip()
		}
		var m sampling.Method
		switch kind % 3 {
		case 0:
			m = &sampling.Bernoulli{Rel: "tbl", P: p}
		case 1:
			lh, err := sampling.NewLineageHash(qSeed, map[string]float64{"tbl": p})
			if err != nil {
				t.Skip()
			}
			m = lh
		default:
			m = &sampling.WOR{Rel: "tbl", K: int(qSeed % 4096)}
		}
		if err := Oracle(s, m, "tbl", src); err != nil {
			t.Fatalf("oracle refuted an accepted subsumption (p=%v q=%v strat=%v kind=%d): %v", p, q, strat, kind%3, err)
		}
	})
}

package metric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compactrouting/internal/gate"
)

// wrappedDistancer is a plain decorator: it forwards the Distancer
// methods and the PrefetchBalls hint, and nothing else, so SweepBalls
// takes its generic query path on it.
type wrappedDistancer struct{ Distancer }

func (w wrappedDistancer) PrefetchBalls(sources []int, r float64) {
	PrefetchBalls(w.Distancer, sources, r)
}

// sweptRow is one visit as the test records it.
type sweptRow struct {
	u      int
	nodes  []int32
	dist   []uint64
	parent []int32
}

func sweepAll(a Distancer, sources []int, r float64) []sweptRow {
	var out []sweptRow
	SweepBalls(a, sources, r, func(u int, row BallRow) {
		sr := sweptRow{u: u, nodes: append([]int32(nil), row.Nodes...)}
		for k := range row.Nodes {
			sr.dist = append(sr.dist, math.Float64bits(row.Dist(k)))
			sr.parent = append(sr.parent, int32(row.Parent(k)))
		}
		out = append(out, sr)
	})
	return out
}

// sweepSources is an unsorted source list with repeats: a shuffled
// subset, then a few of its members again.
func sweepSources(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	src := rng.Perm(n)[:min(n, 40)]
	return append(src, src[3], src[0], src[3])
}

// TestSweepBallsMatchesQueries holds every backend's SweepBalls to the
// point queries: each visited row, in the given source order, must be
// AppendBall(u, r) node for node, with Dist(u, v) bit for bit and
// NextHop(v, u) as the parent — on the dense matrix, on the lazy
// oracle's parallel chunks and on the generic decorator path, at
// GOMAXPROCS 1 and 8, across the kernel reference graphs (the rounding
// ExponentialPath included).
func TestSweepBallsMatchesQueries(t *testing.T) {
	for _, tc := range kernelRefGraphs(t) {
		g, n := tc.g, tc.g.N()
		dense := NewAPSP(g)
		sources := sweepSources(n, 5)
		radii := []float64{0, dense.Eccentricity(sources[0]) / 2, math.Inf(1)}
		for _, procs := range gate.Procs {
			for _, backend := range []string{"dense", "lazy", "wrapped-lazy", "wrapped-dense"} {
				t.Run(fmt.Sprintf("%s/procs%d/%s", tc.name, procs, backend), func(t *testing.T) {
					gate.WithProcs(procs, func() {
						var a Distancer
						switch backend {
						case "dense":
							a = dense
						case "lazy":
							a = NewLazyOracleOpts(g, LazyOpts{MaxEntries: 4 * n})
						case "wrapped-lazy":
							a = wrappedDistancer{NewLazyOracle(g)}
						case "wrapped-dense":
							a = wrappedDistancer{dense}
						}
						for _, r := range radii {
							got := sweepAll(a, sources, r)
							if len(got) != len(sources) {
								t.Fatalf("r=%v: %d visits for %d sources", r, len(got), len(sources))
							}
							for k, u := range sources {
								checkSweptRow(t, a, got[k], u, r)
							}
						}
					})
				})
			}
		}
	}
}

func checkSweptRow(t *testing.T, a Distancer, got sweptRow, u int, r float64) {
	t.Helper()
	if got.u != u {
		t.Fatalf("r=%v: visited source %d where %d was due", r, got.u, u)
	}
	ball := a.AppendBall(nil, u, r)
	if len(got.nodes) != len(ball) || len(got.dist) != len(ball) || len(got.parent) != len(ball) {
		t.Fatalf("source %d r=%v: row of %d/%d/%d entries, ball has %d",
			u, r, len(got.nodes), len(got.dist), len(got.parent), len(ball))
	}
	for k, v := range ball {
		if int(got.nodes[k]) != v {
			t.Fatalf("source %d r=%v: node %d is %d, AppendBall has %d", u, r, k, got.nodes[k], v)
		}
		if want := math.Float64bits(a.Dist(u, v)); got.dist[k] != want {
			t.Fatalf("source %d r=%v: dist to %d has bits %x, Dist %x", u, r, v, got.dist[k], want)
		}
		if want := a.NextHop(v, u); int(got.parent[k]) != want {
			t.Fatalf("source %d r=%v: parent of %d is %d, NextHop(%d, %d) = %d", u, r, v, got.parent[k], v, u, want)
		}
	}
}

// TestLazySweepLeavesCacheAlone pins the lazy sweep's cache contract:
// sweeping far more entries than the LRU budget holds caches nothing,
// evicts nothing and counts no hits, and every swept row is counted as
// one row built with its ball's entries settled.
func TestLazySweepLeavesCacheAlone(t *testing.T) {
	g := propertyGraph(t, 96, 31)
	n := g.N()
	o := NewLazyOracleOpts(g, LazyOpts{MaxEntries: 2 * n})
	o.Dist(0, n-1) // one cached row for the sweep to leave in place
	o.Ball(5, o.Eccentricity(5)/4)
	before, entries := o.Stats(), o.CachedEntries()
	sources := make([]int, n)
	for i := range sources {
		sources[i] = n - 1 - i
	}
	var settled uint64
	SweepBalls(o, sources, math.Inf(1), func(_ int, row BallRow) { settled += uint64(len(row.Nodes)) })
	if settled != uint64(n*n) {
		t.Fatalf("swept %d entries, want %d", settled, n*n)
	}
	after := o.Stats()
	if o.CachedEntries() != entries || after.Evictions != before.Evictions || after.Hits != before.Hits {
		t.Fatalf("sweep touched the cache: entries %d -> %d, stats %+v -> %+v", entries, o.CachedEntries(), before, after)
	}
	if after.RowsBuilt-before.RowsBuilt != uint64(n) || after.Settled-before.Settled != settled {
		t.Fatalf("sweep counted %d rows / %d settled, want %d / %d",
			after.RowsBuilt-before.RowsBuilt, after.Settled-before.Settled, n, settled)
	}
}

// TestSweepByQueriesFitsChunks pins the generic path's chunking: on a
// decorator over a default-budget lazy oracle, every ball read after
// a chunk's prefetch is a cache hit, so no source is built twice.
func TestSweepByQueriesFitsChunks(t *testing.T) {
	g := propertyGraph(t, 300, 7)
	n := g.N()
	o := NewLazyOracle(g)
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	// n full rows are 90,000 entries, past the 65,536-entry default.
	SweepBalls(wrappedDistancer{o}, sources, math.Inf(1), func(int, BallRow) {})
	if st := o.Stats(); st.RowsBuilt != uint64(n) {
		t.Fatalf("generic sweep built %d rows for %d sources (a read missed the cache): %+v", st.RowsBuilt, n, st)
	}
}

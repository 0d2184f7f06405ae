package metric

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
)

// propertyGraph is the shared fixture for the LazyOracle property
// tests: a power-law graph (skewed degrees stress the truncated rows)
// with enough nodes that the undersized caches below actually evict.
func propertyGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.PowerLaw(n, 2, 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLazyTriangleInequality checks the metric axioms on the lazy
// backend's answers: symmetry, identity, and the triangle inequality
// over all node triples. Both hold only up to float accumulation
// slack — Dijkstra from opposite endpoints of a path sums the same
// edge weights in opposite order, which can differ in the last ulp
// (the dense backend has the identical property).
func TestLazyTriangleInequality(t *testing.T) {
	g := propertyGraph(t, 48, 7)
	o := NewLazyOracleOpts(g, LazyOpts{MaxEntries: 3 * g.N()})
	n := g.N()
	const slack = 1e-9
	for u := 0; u < n; u++ {
		if d := o.Dist(u, u); d != 0 {
			t.Fatalf("Dist(%d,%d) = %v, want 0", u, u, d)
		}
		for v := 0; v < n; v++ {
			duv := o.Dist(u, v)
			if dvu := o.Dist(v, u); math.Abs(duv-dvu) > slack*(1+duv) {
				t.Fatalf("asymmetric: Dist(%d,%d)=%v Dist(%d,%d)=%v", u, v, duv, v, u, dvu)
			}
			for w := 0; w < n; w += 5 {
				if duw := o.Dist(u, w); duw > duv+o.Dist(v, w)+slack {
					t.Fatalf("triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						u, w, duw, u, v, v, w, duv+o.Dist(v, w))
				}
			}
		}
	}
}

// TestLazyBallMonotonicity checks that balls grow consistently: a
// smaller radius yields a prefix of the larger radius's ball (rows
// order members by (distance, id)), BallSize matches len(Ball), and
// RadiusOfSize is the inverse of BallOfSize — the ball at the returned
// radius holds at least the requested count.
func TestLazyBallMonotonicity(t *testing.T) {
	g := propertyGraph(t, 64, 11)
	o := NewLazyOracleOpts(g, LazyOpts{MaxEntries: 4 * g.N()})
	n := g.N()
	for u := 0; u < n; u += 3 {
		ecc := o.Eccentricity(u)
		var prev []int
		for _, frac := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0} {
			r := ecc * frac
			ball := o.Ball(u, r)
			if got := o.BallSize(u, r); got != len(ball) {
				t.Fatalf("BallSize(%d,%g)=%d but len(Ball)=%d", u, r, got, len(ball))
			}
			if len(ball) < len(prev) {
				t.Fatalf("ball shrank at u=%d r=%g: %d -> %d members", u, r, len(prev), len(ball))
			}
			for i, v := range prev {
				if ball[i] != v {
					t.Fatalf("smaller ball not a prefix at u=%d r=%g index %d", u, r, i)
				}
			}
			for _, v := range ball {
				if d := o.Dist(u, v); d > r {
					t.Fatalf("Ball(%d,%g) holds %d at distance %v", u, r, v, d)
				}
			}
			prev = ball
		}
		for _, size := range []int{1, 2, n / 4, n / 2, n} {
			r := o.RadiusOfSize(u, size)
			if got := o.BallSize(u, r); got < size {
				t.Fatalf("BallSize(%d, RadiusOfSize(%d,%d)=%g) = %d < %d", u, u, size, r, got, size)
			}
			if len(o.BallOfSize(u, size)) < size {
				t.Fatalf("BallOfSize(%d,%d) returned fewer than %d members", u, size, size)
			}
		}
	}
}

// TestLazyEvictionRequeryDeterminism pins that evicting a row and
// re-deriving it later returns bit-identical answers: a tiny cache
// (floored at one full row) is swept twice in different query orders
// and cross-checked against an unbounded oracle. Cache history must be
// unobservable through the query API.
func TestLazyEvictionRequeryDeterminism(t *testing.T) {
	g := propertyGraph(t, 56, 13)
	n := g.N()
	// MaxEntries 1 floors at n: each full row evicts the previous one,
	// so every query below re-derives its row from scratch.
	tiny := NewLazyOracleOpts(g, LazyOpts{MaxEntries: 1})
	big := NewLazyOracleOpts(g, LazyOpts{MaxEntries: n * n})
	type answer struct {
		dist float64
		hop  int
		ball []int
	}
	query := func(o *LazyOracle, u, v int) answer {
		return answer{
			dist: o.Dist(u, v),
			hop:  o.NextHop(u, v),
			ball: o.BallOfSize(u, 1+(u+v)%n),
		}
	}
	var keys [][2]int
	first := make(map[[2]int]answer)
	for u := 0; u < n; u += 2 {
		for v := 0; v < n; v += 3 {
			k := [2]int{u, v}
			keys = append(keys, k)
			first[k] = query(tiny, u, v)
		}
	}
	// Second sweep in reverse order: every row was evicted in between,
	// and the requery must reproduce the first sweep bit for bit.
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		got := query(tiny, k[0], k[1])
		if !eqBits(got.dist, first[k].dist) || got.hop != first[k].hop || !intsEqual(got.ball, first[k].ball) {
			t.Fatalf("requery (%d,%d) after eviction diverged: %+v vs %+v", k[0], k[1], got, first[k])
		}
		ref := query(big, k[0], k[1])
		if !eqBits(got.dist, ref.dist) || got.hop != ref.hop || !intsEqual(got.ball, ref.ball) {
			t.Fatalf("(%d,%d): evicting oracle diverged from unbounded: %+v vs %+v", k[0], k[1], got, ref)
		}
	}
}

// TestLazyPrefetchParallelDeterminism pins PrefetchBalls' schedule
// independence: the rows it installs — and every answer derived from
// them — must be identical whether the strided Dijkstra workers run on
// one P or eight. Install order is serialized in source order by
// construction; this test is the regression net for that contract. The
// cache's entry count rides along as an extra.
func TestLazyPrefetchParallelDeterminism(t *testing.T) {
	g := propertyGraph(t, 96, 17)
	n := g.N()
	sources := make([]int, 0, n/2)
	for u := 0; u < n; u += 2 {
		sources = append(sources, u)
	}
	gate.Same(t, func() []byte {
		o := NewLazyOracleOpts(g, LazyOpts{MaxEntries: 64 * n})
		r := o.Eccentricity(sources[0]) / 2
		o.PrefetchBalls(sources, r)
		var out []byte
		for _, u := range sources {
			out = fmt.Appendf(out, "ball %d: %v\n", u, o.Ball(u, r))
		}
		return fmt.Appendf(out, "cached entries %d", o.CachedEntries())
	})
}

// TestLazyStatsDeterministic pins the work counters to the query
// sequence: a fixed workload — a parallel PrefetchBalls sweep, then
// point, ball and order queries through an undersized cache — reports
// identical Stats on a repeat run and at every GOMAXPROCS.
func TestLazyStatsDeterministic(t *testing.T) {
	g := propertyGraph(t, 96, 23)
	n := g.N()
	var stats LazyStats
	workload := func() []byte {
		o := NewLazyOracleOpts(g, LazyOpts{MaxEntries: 4 * n})
		sources := make([]int, 0, n/3)
		for u := 0; u < n; u += 3 {
			sources = append(sources, u)
		}
		r := o.Eccentricity(0) / 3
		o.PrefetchBalls(sources, r)
		for i := 0; i < 4*n; i++ {
			u, v := (i*7)%n, (i*13+5)%n
			o.Dist(u, v)
			o.NextHop(u, v)
			o.BallSize(u, r/2)
			o.Kth(v, i%n)
			o.RadiusOfSize(u, 1+i%16)
		}
		stats = o.Stats()
		return fmt.Appendf(nil, "%+v", stats)
	}
	first := gate.Same(t, workload)
	if stats.Hits == 0 || stats.RowsBuilt == 0 || stats.Evictions == 0 || stats.Settled < stats.RowsBuilt {
		t.Fatalf("workload did not exercise every counter: %+v", stats)
	}
	if again := gate.Same(t, workload); !bytes.Equal(again, first) {
		t.Fatalf("Stats differ between identical runs: %s vs %s", first, again)
	}
}

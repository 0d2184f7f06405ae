package metric

import (
	"fmt"

	"compactrouting/internal/graph"
)

// NewBackend compiles the named distance backend for g: "dense" (or
// "") builds the APSP matrices, "lazy" the on-demand row cache. It is
// the one dense|lazy constructor: compactrouting's networks,
// internal/exp and cmd/routesim all build their oracle here.
func NewBackend(g *graph.Graph, name string) (Distancer, error) {
	switch name {
	case "", "dense":
		return NewAPSP(g), nil
	case "lazy":
		return NewLazyOracle(g), nil
	}
	return nil, fmt.Errorf("unknown backend %q (want dense|lazy)", name)
}

// Distancer is the metric backend the scheme constructors compile
// against: every query the paper's constructions make about the
// shortest-path metric, abstracted away from how the answers are
// produced. Two implementations exist:
//
//   - APSP, the dense backend: Dijkstra from every node up front,
//     O(n²) memory, O(1) queries.
//   - LazyOracle, the on-demand backend: truncated single-source
//     Dijkstra rows computed per query and cached in a bounded LRU,
//     o(n²) memory for ball-local construction patterns.
//
// The two backends are byte-equivalent: for every query below, both
// return bit-identical results on the same graph (asserted by the
// dense/lazy equivalence suite in equivalence_test.go). The contract
// that makes this possible is the orientation pinned on APSP: Dist(u,
// v) carries source-u summation order, NextHop(u, v) is the canonical
// target-rooted tree of v, and ball/order queries around u are pure
// functions of u's own Dijkstra row with (distance, id) tie-breaks.
//
// Distancers are preprocessing oracles: schemes consult them while
// compiling routing tables, never while routing. All methods are safe
// for concurrent use (APSP is immutable; LazyOracle locks internally).
type Distancer interface {
	// N returns the number of nodes.
	N() int
	// Dist returns d(u, v) with source-u summation order. The serving
	// plane's framed route path calls it per query: the dense backend
	// answers with an allocation-free array read (held to 0 allocs/op
	// by the frame-path AllocsPerRun pins), while the lazy backend may
	// allocate on a cold row — its serving cost is amortized, not
	// zero, which is the documented price of skipping the n² build.
	//determinlint:hotpath
	Dist(u, v int) float64
	// NextHop returns the neighbor of u on the canonical shortest path
	// from u to v (u's parent in the tree rooted at v), or -1 if u == v.
	NextHop(u, v int) int
	// Kth returns the k-th nearest node to u (k=0 is u itself), ties in
	// distance broken by node id.
	Kth(u, k int) int
	// RadiusOfSize returns r_u(size): the distance from u to its
	// size-th nearest node. RadiusOfSize(u, 1) == 0.
	RadiusOfSize(u, size int) float64
	// BallOfSize returns the first size entries of u's distance order.
	BallOfSize(u, size int) []int
	// AppendBallOfSize is BallOfSize appending into dst.
	AppendBallOfSize(dst []int, u, size int) []int
	// Ball returns all nodes within distance r of u (inclusive), in
	// increasing (distance, id) order.
	Ball(u int, r float64) []int
	// AppendBall is Ball appending into dst.
	AppendBall(dst []int, u int, r float64) []int
	// BallSize returns |B_u(r)|.
	BallSize(u int, r float64) int
	// Nearest returns the member of set nearest to u — comparing the
	// candidate-rooted distances Dist(v, u), ties by least id — with
	// its distance, or (-1, +Inf) for an empty set.
	Nearest(u int, set []int) (int, float64)
	// Eccentricity returns max_v d(u, v).
	Eccentricity(u int) float64
	// MinPairDistance returns the smallest nonzero pairwise distance.
	// On a connected positively-weighted graph this is exactly the
	// minimum edge weight (any multi-edge path sums at least two such
	// weights), so both backends produce the identical float64.
	MinPairDistance() float64
}

var (
	_ Distancer = (*APSP)(nil)
	_ Distancer = (*LazyOracle)(nil)
)

// DiameterOf returns the exact diameter, max_u Eccentricity(u), of any
// backend. On the dense backend each eccentricity is an O(1) read; on
// the lazy backend every one costs a full Dijkstra row, so scalable
// paths should bound scales with Eccentricity of a root instead.
func DiameterOf(a Distancer) float64 {
	if d, ok := a.(interface{ Diameter() float64 }); ok {
		return d.Diameter()
	}
	max := 0.0
	for u := 0; u < a.N(); u++ {
		if e := a.Eccentricity(u); e > max {
			max = e
		}
	}
	return max
}

// NormalizedDiameterOf returns Delta = diameter / min pair distance,
// the paper's normalized diameter (1 for n < 2). Same cost caveat as
// DiameterOf on the lazy backend.
func NormalizedDiameterOf(a Distancer) float64 {
	if a.N() < 2 {
		return 1
	}
	return DiameterOf(a) / a.MinPairDistance()
}

// Prefetcher is optionally implemented by backends that can batch-build
// internal per-source state ahead of a sweep. PrefetchBalls warms the
// rows of the given sources out to radius r, sharding the cold misses
// over internal/par; queries stay answer-identical whether or not it
// ran (it is purely a throughput hint).
type Prefetcher interface {
	PrefetchBalls(sources []int, r float64)
}

// PrefetchBalls warms a's per-source state for the sources out to
// radius r when the backend supports it (the dense backend needs no
// warming and this is a no-op).
func PrefetchBalls(a Distancer, sources []int, r float64) {
	if p, ok := a.(Prefetcher); ok {
		p.PrefetchBalls(sources, r)
	}
}

package metric

import (
	"math"
	"sort"

	"compactrouting/internal/graph"
	"compactrouting/internal/par"
)

// APSP holds all-pairs shortest-path data: the full distance matrix,
// per-target next hops, and for every node the list of all nodes sorted
// by distance from it (ties by node id). The sorted orders realize the
// paper's ball machinery: the "ball of size k around u" is the first k
// entries of u's order, and r_u(j) is the distance of entry 2^j - 1.
//
// Orientation: row u holds the source-rooted Dijkstra run from u, so
// Dist(u, v) carries u's summation order — exactly the bytes one
// truncated Dijkstra from u produces, which is what lets the dense and
// lazy backends agree bit for bit (see Distancer). NextHop(u, v) stays
// target-rooted: it is u's parent in the canonical tree rooted at v,
// i.e. column u of v's run, so every node along a route agrees on one
// tree toward the destination.
//
// APSP is the preprocessing oracle: schemes consult it while compiling
// routing tables, never while routing.
type APSP struct {
	n       int
	dist    []float64 // dist[u*n+v] = Dijkstra(g,u).Dist[v]
	nextHop []int32   // nextHop[u*n+v] = Dijkstra(g,v).Parent[u]; -1 if u==v
	order   []int32   // order[u*n+k] = k-th nearest node to u (order[u*n] == u)
}

// NewAPSP runs Dijkstra from every node and builds the oracle.
// It costs O(n·m·log n) time and O(n²) memory. Sources are strided
// over the worker pool, each worker reusing one sssp scratch for all
// of its sources, and the order rows need no sort: the kernel settles
// nodes in (distance, id) order, so row u of order is u's settle
// sequence.
func NewAPSP(g *graph.Graph) *APSP {
	n := g.N()
	a := &APSP{
		n:       n,
		dist:    make([]float64, n*n),
		nextHop: make([]int32, n*n),
		order:   make([]int32, n*n),
	}
	workers := par.SuggestedWorkers(n)
	par.For(workers, func(w int) {
		s := newSSSP(n)
		for u := w; u < n; u += workers {
			s.run(g, u)
			// Source u owns dist row u, order row u and nextHop column
			// u: s.parent[v] is v's next hop toward u.
			copy(a.dist[u*n:(u+1)*n], s.dist)
			copy(a.order[u*n:(u+1)*n], s.order)
			for v, p := range s.parent {
				//determinlint:allow parbody worker w owns the sources {w, w+workers, ...}: column u of nextHop has exactly one writer
				a.nextHop[v*n+u] = p
			}
			s.reset()
		}
	})
	return a
}

// N returns the number of nodes.
func (a *APSP) N() int { return a.n }

// Dist returns d(u, v).
func (a *APSP) Dist(u, v int) float64 { return a.dist[u*a.n+v] }

// NextHop returns the neighbor of u on a canonical shortest path from u
// to v, or -1 if u == v.
func (a *APSP) NextHop(u, v int) int { return int(a.nextHop[u*a.n+v]) }

// Kth returns the k-th nearest node to u (k=0 is u itself).
func (a *APSP) Kth(u, k int) int { return int(a.order[u*a.n+k]) }

// RadiusOfSize returns r_u(size): the distance from u to its size-th
// nearest node (so the ball of that radius holds at least size nodes).
// RadiusOfSize(u, 1) == 0.
func (a *APSP) RadiusOfSize(u, size int) float64 {
	if size < 1 {
		return 0
	}
	if size > a.n {
		size = a.n
	}
	return a.dist[u*a.n+int(a.order[u*a.n+size-1])]
}

// BallOfSize returns the first size entries of u's distance order: the
// canonical "ball of size exactly size around u" used wherever the paper
// assumes |B_u(r_u(j))| = 2^j (ties are resolved by node id).
func (a *APSP) BallOfSize(u, size int) []int {
	return a.AppendBallOfSize(nil, u, size)
}

// AppendBallOfSize is BallOfSize appending into dst, so hot loops can
// reuse one buffer instead of allocating per call.
func (a *APSP) AppendBallOfSize(dst []int, u, size int) []int {
	if size > a.n {
		size = a.n
	}
	for i := 0; i < size; i++ {
		dst = append(dst, int(a.order[u*a.n+i]))
	}
	return dst
}

// Ball returns all nodes within distance r of u, i.e. B_u(r), in
// increasing distance order.
func (a *APSP) Ball(u int, r float64) []int {
	return a.AppendBall(nil, u, r)
}

// AppendBall is Ball appending into dst: the scheme constructors call
// it once per (node, level) in their hottest loops, reusing a per-node
// scratch buffer instead of allocating a fresh slice each time.
func (a *APSP) AppendBall(dst []int, u int, r float64) []int {
	row := a.order[u*a.n : (u+1)*a.n]
	dr := a.dist[u*a.n : (u+1)*a.n]
	k := sort.Search(a.n, func(i int) bool { return dr[row[i]] > r })
	for i := 0; i < k; i++ {
		dst = append(dst, int(row[i]))
	}
	return dst
}

// BallSize returns |B_u(r)|.
func (a *APSP) BallSize(u int, r float64) int {
	row := a.order[u*a.n : (u+1)*a.n]
	dr := a.dist[u*a.n : (u+1)*a.n]
	return sort.Search(a.n, func(i int) bool { return dr[row[i]] > r })
}

// Nearest returns the node of set nearest to u, breaking ties by node
// id, together with its distance. The comparison reads Dist(v, u) for
// each candidate v — candidate-rooted, so the bytes compared are the
// candidates' own Dijkstra rows (the direction both backends share).
// It returns (-1, +Inf) for an empty set.
func (a *APSP) Nearest(u int, set []int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for _, v := range set {
		d := a.Dist(v, u)
		//determinlint:allow floateq deliberate exact tie-break: nearest-by-(distance, id) must be bit-reproducible
		if d < bd || (d == bd && v < best) {
			best, bd = v, d
		}
	}
	return best, bd
}

// Eccentricity returns max_v d(u, v), the distance from u to the node
// farthest from it.
func (a *APSP) Eccentricity(u int) float64 {
	// The farthest node from u is the last entry of u's order.
	return a.dist[u*a.n+int(a.order[u*a.n+a.n-1])]
}

// Diameter returns the largest pairwise distance.
func (a *APSP) Diameter() float64 {
	max := 0.0
	for u := 0; u < a.n; u++ {
		if d := a.Eccentricity(u); d > max {
			max = d
		}
	}
	return max
}

// MinPairDistance returns the smallest nonzero pairwise distance.
func (a *APSP) MinPairDistance() float64 {
	min := math.Inf(1)
	for u := 0; u < a.n; u++ {
		if a.n < 2 {
			break
		}
		d := a.dist[u*a.n+int(a.order[u*a.n+1])]
		if d > 0 && d < min {
			min = d
		}
	}
	return min
}

// NormalizedDiameter returns Delta = max pair distance / min pair
// distance, the paper's normalized diameter. Returns 1 for n < 2.
func (a *APSP) NormalizedDiameter() float64 {
	if a.n < 2 {
		return 1
	}
	return a.Diameter() / a.MinPairDistance()
}

package metric

import (
	"math"

	"compactrouting/internal/graph"
)

// PointDist returns a.Dist(u, v), bit for bit, for a caller that asks
// one distance and will not read u's row again: the serving plane's
// optimal distance. On the lazy backend it runs the landmark A* search
// (LazyOracle.pointDist) instead of building a truncated row; any
// other backend answers through Dist, so the dense path stays a matrix
// read.
//
//determinlint:hotpath
func PointDist(a Distancer, u, v int) float64 {
	if o, ok := a.(*LazyOracle); ok {
		return o.pointDist(u, v)
	}
	return a.Dist(u, v)
}

// landmarkCount is the number of landmarks behind the point search's
// lower bounds (all nodes on graphs with fewer). It is a constant, not
// a knob. On power-law n=2048 a search expands 185 nodes with 8
// landmarks, 134 with 16 and 94 with 32, and takes about 50, 37 and
// 32 µs (CHANGES.md has the table); 16 keeps the index at 128 bytes a
// node and its build, paid by the first point query, at 17 full rows.
const landmarkCount = 16

// landmarks is the point search's index: the full Dijkstra rows of
// the landmarks, chosen by farthest-point traversal, stored node-major
// so one node's distances share two cache lines. At 128 bytes per node
// it is 256 KB at n=2048 and 12.8 MB at n=10⁵.
type landmarks struct {
	// dist[x][j] is Dist(L_j, x), landmark j's source-rooted distance
	// to x. On graphs with fewer than landmarkCount nodes the unused
	// columns stay 0 and never raise a bound.
	dist [][landmarkCount]float64
	// slack is τ, the absolute rounding allowance subtracted from every
	// lower bound (DESIGN §Distance backends, point search).
	slack float64
	// rows counts the kernel runs the build made: one from node 0 to
	// seed the traversal, then one per landmark.
	rows uint64
}

// newLandmarks builds the index on g. The first landmark is the node
// farthest from node 0; each next one is the node whose distance to
// the nearest landmark chosen so far is largest; ties go to the least
// id. Each landmark's row is a full run of the shared kernel.
func newLandmarks(g *graph.Graph) *landmarks {
	n := g.N()
	ix := &landmarks{dist: make([][landmarkCount]float64, n)}
	s := newSSSP(n)
	far := make([]float64, n)
	s.run(g, 0)
	copy(far, s.dist)
	s.reset()
	ix.rows++
	longest := 0.0
	for j := 0; j < min(landmarkCount, n); j++ {
		l := 0
		for x := 1; x < n; x++ {
			if far[x] > far[l] {
				l = x
			}
		}
		s.run(g, l)
		ix.rows++
		for x, d := range s.dist {
			ix.dist[x][j] = d
			if j == 0 || d < far[x] {
				far[x] = d
			}
			longest = max(longest, d)
		}
		s.reset()
	}
	// τ = 8(n+1)·2⁻⁵³·max_j,x Dist(L_j, x), about twice the
	// ≈4.2·n·2⁻⁵³·D the exactness argument needs (D the largest
	// landmark distance).
	ix.slack = longest * (float64(8*(n+1)) * 0x1p-53)
	return ix
}

// lowerBound returns h(x) = max(0, max_j |ℓ_j(x) − ℓ_j(t)| − τ), a
// lower bound on the distance from x to the target t, whose landmark
// distances are lt.
func (ix *landmarks) lowerBound(x int, lt *[landmarkCount]float64) float64 {
	lx := &ix.dist[x]
	// The largest |ℓ_j(x) − ℓ_j(t)| by its IEEE bits with the sign
	// cleared, which order like the magnitudes: an integer max the
	// compiler makes branch-free.
	var m uint64
	for j := range lx {
		if b := math.Float64bits(lx[j]-lt[j]) &^ (1 << 63); b > m {
			m = b
		}
	}
	if h := math.Float64frombits(m) - ix.slack; h > 0 {
		return h
	}
	return 0
}

// pointItem is one heap entry of the point search: a node and its key,
// the IEEE bits of g + h (non-negative, so the bits order like the
// value).
type pointItem struct {
	key uint64
	v   int32
}

// pointScratch is one point search's working state, reused across
// searches. Between searches every node is clean (g +Inf, pos -1), and
// reset restores that in time proportional to the nodes the last
// search touched. It is 20 bytes per node plus the heap and the touched
// list, which grow to the largest search so far.
type pointScratch struct {
	g       []float64 // tentative distance from the source, +Inf until touched
	h       []float64 // lower bound on the distance to the target, set on first touch
	pos     []int32   // heap index of a queued node, -1 otherwise
	heap    []pointItem
	touched []int32
	lt      [landmarkCount]float64 // the target's landmark distances
}

func newPointScratch(n int) *pointScratch {
	sc := &pointScratch{
		g:   make([]float64, n),
		h:   make([]float64, n),
		pos: make([]int32, n),
	}
	for v := range sc.g {
		sc.g[v] = math.Inf(1)
		sc.pos[v] = -1
	}
	return sc
}

// search returns Dist(src, dst) and the number of heap pops it made,
// on clean scratch sc, which it leaves clean. It is A* with the
// landmark lower bounds, label-correcting: a node whose distance drops
// after it was popped is queued again. It stops at the pop of dst,
// whose distance is then exactly the source-rooted Dijkstra's
// (DESIGN §Distance backends gives the argument).
func (ix *landmarks) search(g *graph.Graph, sc *pointScratch, src, dst int) (float64, uint64) {
	sc.lt = ix.dist[dst]
	sc.lower(ix, src, 0)
	d := math.Inf(1)
	var pops uint64
	for len(sc.heap) > 0 {
		x := sc.pop()
		pops++
		if int(x) == dst {
			d = sc.g[x]
			break
		}
		gx := sc.g[x]
		for _, e := range g.Neighbors(int(x)) {
			if nd := gx + e.Weight; nd < sc.g[e.To] {
				sc.lower(ix, e.To, nd)
			}
		}
	}
	sc.reset()
	return d, pops
}

// lower sets x's distance to d, which is below its current one, and
// queues x at key d + h(x), re-queueing it if it was already popped.
func (sc *pointScratch) lower(ix *landmarks, x int, d float64) {
	if math.IsInf(sc.g[x], 1) {
		sc.touched = append(sc.touched, int32(x))
		sc.h[x] = ix.lowerBound(x, &sc.lt)
	}
	sc.g[x] = d
	key := math.Float64bits(d + sc.h[x])
	i := int(sc.pos[x])
	if i < 0 {
		i = len(sc.heap)
		sc.heap = append(sc.heap, pointItem{key, int32(x)})
	} else {
		sc.heap[i].key = key
	}
	sc.up(i)
}

// less orders heap entries by (key, node id).
func (a pointItem) less(b pointItem) bool {
	return a.key < b.key || (a.key == b.key && a.v < b.v)
}

// up restores the heap above position i, whose key just fell.
func (sc *pointScratch) up(i int) {
	h := sc.heap
	it := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(h[p]) {
			break
		}
		h[i] = h[p]
		sc.pos[h[i].v] = int32(i)
		i = p
	}
	h[i] = it
	sc.pos[it.v] = int32(i)
}

// pop removes and returns the node of minimum (key, id).
func (sc *pointScratch) pop() int32 {
	h := sc.heap
	top := h[0].v
	sc.pos[top] = -1
	n := len(h) - 1
	it := h[n]
	h = h[:n]
	sc.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(it) {
			break
		}
		h[i] = h[c]
		sc.pos[h[i].v] = int32(i)
		i = c
	}
	h[i] = it
	sc.pos[it.v] = int32(i)
	return top
}

// reset returns the scratch to clean; every node the search queued is
// on the touched list.
func (sc *pointScratch) reset() {
	for _, v := range sc.touched {
		sc.g[v] = math.Inf(1)
		sc.pos[v] = -1
	}
	sc.touched = sc.touched[:0]
	sc.heap = sc.heap[:0]
}

// Package metric computes the shortest-path metric of a weighted graph
// and the metric-space primitives the paper's constructions consume:
// balls B_u(r), ball-size radii r_u(j), nearest-point queries, Voronoi
// partitions with consistent tie-breaking, normalized diameter, and a
// greedy doubling-dimension estimator.
package metric

import (
	"math"

	"compactrouting/internal/graph"
)

// SPT is a single-source shortest-path tree.
//
// Parent[v] is the neighbor of v on a shortest path from v toward Source
// (-1 for the source itself), so Parent doubles as the per-node next-hop
// table "toward Source". Ties are broken deterministically: among equal-
// distance relaxations the edge from the smaller-id parent wins, so all
// nodes agree on one canonical tree.
type SPT struct {
	Source int
	Dist   []float64
	Parent []int
}

// pqItem is an entry of the lazy-deletion binary heap used by
// Voronoi. Single-source runs use the sssp kernel's radix heap instead;
// Voronoi keeps this heap because its equal-distance frontiers must
// pop in center order, not node order.
type pqItem struct {
	node int
	dist float64
	// owner orders equal-distance entries: the id of the center the
	// entry extends.
	owner int
}

type pq []pqItem

func (h *pq) push(it pqItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *pq) pop() pqItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && less(old[r], old[l]) {
			c = r
		}
		if !less(old[c], old[i]) {
			break
		}
		old[i], old[c] = old[c], old[i]
		i = c
	}
	return top
}

func less(a, b pqItem) bool {
	//determinlint:allow floateq deliberate exact tie-break: heap order falls through to (owner, node) ids on equal distances
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.node < b.node
}

// Dijkstra computes the shortest-path tree from src on the shared
// sssp kernel (one run on fresh scratch).
func Dijkstra(g *graph.Graph, src int) *SPT {
	s := newSSSP(g.N())
	s.run(g, src)
	parent := make([]int, g.N())
	for v, p := range s.parent {
		parent[v] = int(p)
	}
	return &SPT{Source: src, Dist: s.dist, Parent: parent}
}

// PathTo returns the node sequence of the tree path from v to the source
// (inclusive on both ends).
func (t *SPT) PathTo(v int) []int {
	var path []int
	for v != -1 {
		path = append(path, v)
		v = t.Parent[v]
	}
	return path
}

// Voronoi computes the graph Voronoi partition for the given centers.
//
// Each node is assigned to the center minimizing (distance, center id)
// lexicographically — the consistent tie-breaking the paper's Voronoi
// cells V(c,j) require. The returned parent forest contains, for each
// node, its neighbor on a shortest path toward its owning center, and
// each Voronoi cell is connected in that forest (a shortest-path tree
// per cell, rooted at the center).
//
// owner holds the center's index within centers, dist the distance to
// it, and parent the tree edge (-1 at centers).
func Voronoi(g *graph.Graph, centers []int) (owner []int, dist []float64, parent []int) {
	n := g.N()
	owner = make([]int, n)
	dist = make([]float64, n)
	parent = make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		owner[i] = -1
		parent[i] = -1
	}
	h := make(pq, 0, n)
	for idx, c := range centers {
		// If duplicate centers are passed, the first (smallest idx) wins.
		if dist[c] == 0 {
			continue
		}
		dist[c] = 0
		owner[c] = idx
		h.push(pqItem{node: c, dist: 0, owner: centers[idx]})
	}
	for len(h) > 0 {
		it := h.pop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, e := range g.Neighbors(v) {
			w := e.To
			if done[w] {
				continue
			}
			nd := it.dist + e.Weight
			better := nd < dist[w]
			//determinlint:allow floateq deliberate exact tie-break: equal-distance frontiers go to the smaller center id
			if nd == dist[w] && owner[w] >= 0 {
				// Tie: prefer the smaller center id.
				better = centers[owner[v]] < centers[owner[w]]
			}
			if better {
				dist[w] = nd
				owner[w] = owner[v]
				parent[w] = v
				h.push(pqItem{node: w, dist: nd, owner: centers[owner[v]]})
			}
		}
	}
	return owner, dist, parent
}

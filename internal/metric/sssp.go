package metric

import (
	"cmp"
	"math"
	"slices"

	"compactrouting/internal/graph"
)

// sssp is the single-source shortest-path kernel both distance
// backends run on: NewAPSP, Dijkstra and the lazy oracle's row builder
// all settle nodes through it. It is worker-owned scratch, reused
// across sources: between runs every node is clean (dist +Inf, parent
// -1, not queued), and reset restores that state in time proportional
// to the nodes the last run touched, so a truncated run costs only its
// ball.
//
// The queue is an indexed 4-ary min-heap keyed by (distance, node id)
// with decrease-key, so each node is queued at most once. With positive
// weights (graph.Builder rejects the rest) every predecessor of a node
// settles strictly before it, so by the time a node settles at
// distance d every node at distance d is already queued with its final
// key, and the id tie-break pops them in id order: the settle sequence
// is exactly the node's (distance, id) order row, with no sort.
//
// Floating point can break the strictness: when an edge is lighter
// than half an ulp of the path length it extends (long exponential
// paths), d + w rounds back to d and a node can tie a predecessor that
// has already settled. The kernel notices the first out-of-order
// settle and the run's order is re-sorted before it is read (see
// sortOrder); distances and parents are exact either way.
type sssp struct {
	dist   []float64 // tentative or settled distance from the source
	parent []int32   // min-id neighbor on a shortest path toward the source
	pos    []int32   // heap slot of a queued node, -1 otherwise
	heap   []heapEntry
	hn     int     // queued entries: heap[:hn]
	order  []int32 // settled nodes in settle order
	// unsorted records that the settle order left (distance, id) order
	// (only possible through rounding, see above).
	unsorted bool
}

// heapEntry is a queued node and its tentative distance; the pair is
// the heap key.
type heapEntry struct {
	dist float64
	node int32
}

func newSSSP(n int) *sssp {
	s := &sssp{
		dist:   make([]float64, n),
		parent: make([]int32, n),
		pos:    make([]int32, n),
		heap:   make([]heapEntry, n),
		order:  make([]int32, 0, n),
	}
	for v := range s.dist {
		s.dist[v] = math.Inf(1)
		s.parent[v] = -1
		s.pos[v] = -1
	}
	return s
}

// start begins a run from src on clean scratch.
func (s *sssp) start(src int) {
	s.dist[src] = 0
	s.push(heapEntry{dist: 0, node: int32(src)})
}

// run settles the whole graph from src. The caller reads dist, parent
// and the (distance, id) order, then calls reset before the next run.
func (s *sssp) run(g *graph.Graph, src int) {
	s.start(src)
	for s.hn > 0 {
		s.settle(g)
	}
	if s.unsorted {
		s.sortOrder()
	}
}

// settle pops the nearest queued node, appends it to the settle order
// and relaxes its edges. Ties on an already-queued node keep the
// smaller parent id; settled nodes fail both relax tests — d + w never
// drops below a settled distance, and an equal sum on a settled node
// could only come from rounding, which the pos guard excludes — so the
// parent choice is the min-id tight neighbor regardless of pop order.
func (s *sssp) settle(g *graph.Graph) (int32, float64) {
	top := s.pop()
	v, d := top.node, top.dist
	if k := len(s.order); k > 0 {
		p := s.order[k-1]
		//determinlint:allow floateq deliberate exact tie-break: detects a rounding-induced tie settling out of (distance, id) order
		if d == s.dist[p] && v < p {
			s.unsorted = true
		}
	}
	s.order = append(s.order, v)
	for _, e := range g.Neighbors(int(v)) {
		w := e.To
		nd := d + e.Weight
		dw := s.dist[w]
		if nd < dw {
			s.dist[w] = nd
			s.parent[w] = v
			if s.pos[w] < 0 {
				s.push(heapEntry{dist: nd, node: int32(w)})
			} else {
				s.decrease(heapEntry{dist: nd, node: int32(w)})
			}
			//determinlint:allow floateq deliberate exact tie-break: equal-distance relaxations keep the min-id parent bit for bit
		} else if nd == dw && v < s.parent[w] && s.pos[w] >= 0 {
			s.parent[w] = v
		}
	}
	return v, d
}

// nextDist returns the distance of the nearest queued node, +Inf when
// the queue is empty.
func (s *sssp) nextDist() float64 {
	if s.hn == 0 {
		return math.Inf(1)
	}
	return s.heap[0].dist
}

// sortOrder re-sorts the settled nodes by (distance, id); only runs
// whose settle order rounding disturbed need it.
func (s *sssp) sortOrder() { sortByDist(s.order, s.dist) }

// sortByDist sorts nodes by (dist[v], v), the order-row order. Ids are
// distinct, so (distance, id) is a strict total order and the result
// does not depend on the sort algorithm.
func sortByDist(nodes []int32, dist []float64) {
	slices.SortFunc(nodes, func(a, b int32) int {
		//determinlint:allow floateq deliberate exact tie-break: (distance, id) ordering must be bit-reproducible
		if da, db := dist[a], dist[b]; da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// reset returns the scratch to clean. Every node the run touched is
// either settled (in order) or still queued, so this is O(touched).
func (s *sssp) reset() {
	for _, v := range s.order {
		s.dist[v] = math.Inf(1)
		s.parent[v] = -1
	}
	for _, e := range s.heap[:s.hn] {
		s.dist[e.node] = math.Inf(1)
		s.parent[e.node] = -1
		s.pos[e.node] = -1
	}
	s.order = s.order[:0]
	s.hn = 0
	s.unsorted = false
}

// --- indexed 4-ary heap over heap[:hn], keyed by (dist, node) ---

func (a heapEntry) less(b heapEntry) bool {
	//determinlint:allow floateq deliberate exact tie-break: equal distances pop in node-id order, which makes the settle order the (distance, id) order
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

// push queues a node that is not queued. Capacity is n, and each node
// is queued at most once per run, so it never grows.
//
//determinlint:hotpath
func (s *sssp) push(e heapEntry) {
	i := s.hn
	s.hn++
	s.siftUp(i, e)
}

// decrease lowers the key of a queued node to e.dist.
//
//determinlint:hotpath
func (s *sssp) decrease(e heapEntry) {
	s.siftUp(int(s.pos[e.node]), e)
}

// pop removes and returns the minimum entry; the heap must be
// non-empty.
//
//determinlint:hotpath
func (s *sssp) pop() heapEntry {
	top := s.heap[0]
	s.pos[top.node] = -1
	s.hn--
	if s.hn > 0 {
		s.siftDown(0, s.heap[s.hn])
	}
	return top
}

// siftUp places e at slot i or above, moving larger parents down.
func (s *sssp) siftUp(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		pe := s.heap[p]
		if !e.less(pe) {
			break
		}
		s.heap[i] = pe
		s.pos[pe.node] = int32(i)
		i = p
	}
	s.heap[i] = e
	s.pos[e.node] = int32(i)
}

// siftDown places e at slot i or below, moving smaller children up.
func (s *sssp) siftDown(i int, e heapEntry) {
	n := s.hn
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m, me := c, s.heap[c]
		for j := c + 1; j < end; j++ {
			if s.heap[j].less(me) {
				m, me = j, s.heap[j]
			}
		}
		if !me.less(e) {
			break
		}
		s.heap[i] = me
		s.pos[me.node] = int32(i)
		i = m
	}
	s.heap[i] = e
	s.pos[e.node] = int32(i)
}

package metric

import (
	"math"
	"math/bits"

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
// The queue is a monotone radix heap keyed by the IEEE-754 bit pattern
// of the tentative distance: for non-negative floats the unsigned order
// of the bits is the order of the values, so no float compare is
// needed. Relative to last, the key of the last extracted minimum, a
// queued key k lives in bucket bits.Len64(k ^ last): bucket 0 holds
// the keys equal to last, bucket b >= 1 the keys whose highest bit
// differing from last is bit b-1. The heap is valid because keys are
// monotone: every key pushed while settling a node at d is fl(d + w),
// which is never below d. Buckets 1..63 are doubly linked lists over
// the nodes, so decrease-key unlinks a node and relinks it in its new
// bucket, and each node is queued at most once. When bucket 0 runs
// dry, the lowest non-empty bucket is refilled: its minimum key
// becomes last and its nodes move to lower buckets, the minimum's tie
// class into bucket 0. Bucket 0 is a min-heap of node ids, so equal
// distances pop in id order and every pop is the minimum (distance,
// id) entry, exactly as a heap keyed by that pair would pop.
//
// With positive weights (graph.Builder rejects the rest) every
// predecessor of a node settles strictly before it, so by the time a
// node settles at distance d every node at distance d is already
// queued with its final key, and the id tie-break pops them in id
// order: the settle sequence is exactly the node's (distance, id)
// order row, with no sort.
//
// Floating point can break the strictness: when an edge is lighter
// than half an ulp of the path length it extends (long exponential
// paths), d + w rounds back to d and a node can tie a predecessor that
// has already settled. Such a node enters bucket 0 behind its
// predecessor. The kernel notices the first out-of-order settle and
// the run's order is re-sorted before it is read (see sortOrder);
// distances and parents are exact either way.
//
// Scratch is 32 bytes per node (dist 8, parent, pos, next, prev, ties
// and order 4 each) plus a fixed 64-entry bucket table, allocated once
// by newSSSP; no run allocates.
type sssp struct {
	dist   []float64 // tentative or settled distance from the source
	parent []int32   // min-id neighbor on a shortest path toward the source
	pos    []int32   // bucket of a queued node, -1 otherwise
	next   []int32   // bucket list successor of a queued node, -1 at the tail
	prev   []int32   // bucket list predecessor of a queued node, -1 at the head
	head   [64]int32 // first node of bucket b >= 1, -1 when empty
	full   uint64    // bit b is set iff bucket b >= 1 is non-empty
	ties   []int32   // bucket 0: min-heap of the ids whose key is last
	last   uint64    // key of the last extracted minimum
	order  []int32   // settled nodes in settle order
	// unsorted records that the settle order left (distance, id) order
	// (only possible through rounding, see above).
	unsorted bool
	// sorter is sortOrder's scratch, allocated on first use.
	sorter *distSorter
}

func newSSSP(n int) *sssp {
	// The six per-node int32 arrays share one allocation.
	buf := make([]int32, 6*n)
	s := &sssp{
		dist:   make([]float64, n),
		parent: buf[0*n : 1*n : 1*n],
		pos:    buf[1*n : 2*n : 2*n],
		next:   buf[2*n : 3*n : 3*n],
		prev:   buf[3*n : 4*n : 4*n],
		ties:   buf[4*n : 4*n : 5*n],
		order:  buf[5*n : 5*n : 6*n],
	}
	for v := range s.dist {
		s.dist[v] = math.Inf(1)
		s.parent[v] = -1
		s.pos[v] = -1
	}
	for b := range s.head {
		s.head[b] = -1
	}
	return s
}

// start begins a run from src on clean scratch.
func (s *sssp) start(src int) {
	s.dist[src] = 0
	s.push(int32(src), 0)
}

// run settles the whole graph from src. The caller reads dist, parent
// and the (distance, id) order, then calls reset before the next run.
func (s *sssp) run(g *graph.Graph, src int) {
	s.start(src)
	for !s.empty() {
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
	v := s.pop()
	d := s.dist[v]
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
				s.push(int32(w), nd)
			} else {
				s.decrease(int32(w), nd)
			}
			//determinlint:allow floateq deliberate exact tie-break: equal-distance relaxations keep the min-id parent bit for bit
		} else if nd == dw && v < s.parent[w] && s.pos[w] >= 0 {
			s.parent[w] = v
		}
	}
	return v, d
}

// nextDist returns the distance of the nearest queued node, +Inf when
// the queue is empty. It may refill bucket 0 to find it, which raises
// last to that distance; runs only peek between settles, and the next
// step is a pop or a reset, so no key below it is pushed.
func (s *sssp) nextDist() float64 {
	if s.empty() {
		return math.Inf(1)
	}
	if len(s.ties) == 0 {
		s.refill()
	}
	return math.Float64frombits(s.last)
}

// sortOrder re-sorts the settled nodes by (distance, id); only runs
// whose settle order rounding disturbed need it.
func (s *sssp) sortOrder() {
	if s.sorter == nil {
		s.sorter = new(distSorter)
	}
	s.sorter.sortByDist(s.order, s.dist)
}

// reset returns the scratch to clean. Every node the run touched is
// either settled (in order) or still queued, so this is O(touched).
func (s *sssp) reset() {
	for _, v := range s.order {
		s.dist[v] = math.Inf(1)
		s.parent[v] = -1
	}
	for _, v := range s.ties {
		s.unqueue(v)
	}
	for f := s.full; f != 0; f &= f - 1 {
		b := bits.TrailingZeros64(f)
		for v := s.head[b]; v >= 0; v = s.next[v] {
			s.unqueue(v)
		}
		s.head[b] = -1
	}
	s.full = 0
	s.ties = s.ties[:0]
	s.last = 0
	s.order = s.order[:0]
	s.unsorted = false
}

// unqueue returns a node still queued at reset to clean.
func (s *sssp) unqueue(v int32) {
	s.dist[v] = math.Inf(1)
	s.parent[v] = -1
	s.pos[v] = -1
}

// --- monotone radix heap over the buckets, keyed by Float64bits(dist) ---

// empty reports whether no node is queued.
func (s *sssp) empty() bool {
	return len(s.ties) == 0 && s.full == 0
}

// push queues a node that is not queued, at key d >= last; dist[v]
// must already hold d, since refill reads keys from dist. Each node is
// queued at most once per run, so ties (capacity n) never grows.
//
//determinlint:hotpath
func (s *sssp) push(v int32, d float64) {
	s.insert(v, math.Float64bits(d))
}

// decrease lowers the key of a queued node to d >= last (dist[v] must
// already hold d). A node in bucket 0 is never decreased: its key is
// last, and monotonicity forbids anything lower.
//
//determinlint:hotpath
func (s *sssp) decrease(v int32, d float64) {
	k := math.Float64bits(d)
	if int32(bits.Len64(k^s.last)) == s.pos[v] {
		return
	}
	s.unlink(v)
	s.insert(v, k)
}

// pop removes and returns the queued node of minimum (distance, id);
// the queue must be non-empty.
//
//determinlint:hotpath
func (s *sssp) pop() int32 {
	if len(s.ties) == 0 {
		s.refill()
	}
	v := s.popTie()
	s.pos[v] = -1
	return v
}

// insert files node v with key k into its bucket relative to last.
//
//determinlint:hotpath
func (s *sssp) insert(v int32, k uint64) {
	b := bits.Len64(k ^ s.last)
	s.pos[v] = int32(b)
	if b == 0 {
		s.pushTie(v)
		return
	}
	h := s.head[b]
	s.next[v] = h
	s.prev[v] = -1
	if h >= 0 {
		s.prev[h] = v
	}
	s.head[b] = v
	s.full |= 1 << b
}

// unlink removes node v from its bucket list (bucket >= 1).
//
//determinlint:hotpath
func (s *sssp) unlink(v int32) {
	p, nx := s.prev[v], s.next[v]
	if p >= 0 {
		s.next[p] = nx
	} else {
		b := s.pos[v]
		s.head[b] = nx
		if nx < 0 {
			s.full &^= 1 << b
		}
	}
	if nx >= 0 {
		s.prev[nx] = p
	}
}

// refill empties the lowest non-empty bucket into lower ones: its
// minimum key becomes last, and that key's tie class lands in bucket
// 0. Every other node of the bucket agrees with the old last on the
// bits above the bucket's and so falls strictly lower; the buckets
// above are untouched, since their nodes still first differ from the
// new last at the same bit. Bucket 0 must be empty and some other
// bucket non-empty.
//
//determinlint:hotpath
func (s *sssp) refill() {
	b := bits.TrailingZeros64(s.full)
	m := uint64(math.MaxUint64)
	for v := s.head[b]; v >= 0; v = s.next[v] {
		if k := math.Float64bits(s.dist[v]); k < m {
			m = k
		}
	}
	s.last = m
	v := s.head[b]
	s.head[b] = -1
	s.full &^= 1 << b
	for v >= 0 {
		nx := s.next[v]
		s.insert(v, math.Float64bits(s.dist[v]))
		v = nx
	}
}

// pushTie adds node v to bucket 0's id min-heap.
//
//determinlint:hotpath
func (s *sssp) pushTie(v int32) {
	s.ties = append(s.ties, v)
	t := s.ties
	i := len(t) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t[p] <= v {
			break
		}
		t[i] = t[p]
		i = p
	}
	t[i] = v
}

// popTie removes and returns the smallest id in bucket 0, which must
// be non-empty.
//
//determinlint:hotpath
func (s *sssp) popTie() int32 {
	t := s.ties
	top := t[0]
	n := len(t) - 1
	x := t[n]
	t = t[:n]
	s.ties = t
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && t[c+1] < t[c] {
			c++
		}
		if x <= t[c] {
			break
		}
		t[i] = t[c]
		i = c
	}
	t[i] = x
	return top
}

// Package searchtree implements the paper's search trees: the
// (key, data) dictionaries spread over the nodes of a ball that both
// routing schemes consult.
//
// A search tree on a ball B_c(r) (Definition 3.2) layers the ball into
// nets U_1, U_2, ... of geometrically shrinking radius below the center
// U_0 = {c}, connects every node to its nearest node one level up, and
// distributes the stored pairs evenly over the tree in DFS order
// (Algorithm 1). A lookup descends from the center following subtree key
// ranges (Algorithm 2); the total descent length is at most (1+eps)r, so
// a round trip from the center costs 2(1+eps)r.
//
// Search Tree II (Definition 4.2) caps the number of net levels at
// ceil(log2 n) and hangs the remaining nodes off their nearest net site
// as Voronoi tail paths with tiny virtual edge weights, which removes
// the log(Delta) level dependence — the scale-free variant used by the
// labeled scheme of Theorem 1.2.
package searchtree

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"compactrouting/internal/metric"
)

// Pair is one stored dictionary entry.
type Pair[D any] struct {
	Key  int
	Data D
}

// Tree is a compiled search tree on a ball, stored as flat arrays
// indexed by member position: position p hosts graph node Member(p),
// members are in ascending id order, and Pos maps a node id back to its
// position with one binary search. Every int32 array shares one
// allocation.
type Tree[D any] struct {
	Center int
	Radius float64
	Eps    float64
	// TailEdgeW is the virtual weight of every tail edge (2*eps*r/n).
	TailEdgeW float64

	root    int32   // position of Center
	members []int32 // ball nodes, ascending id
	parent  []int32 // position of the tree parent, -1 at the root
	level   []int32 // net level (0 = center); tail nodes get -1
	// kids[kidOff[p]:kidOff[p+1]] are p's children, as ascending
	// positions (the order they joined the tree).
	kidOff, kids []int32
	// pairs[pairLo[p]:pairHi[p]] are the pairs stored at p, by key.
	pairLo, pairHi []int32
	node           []node // per position: edge weight and key range
	pairs          []Pair[D]
	// layers lists the net levels, then the Voronoi tails, as node
	// ids: U_t is layers[levelOff[t]:levelOff[t+1]], and the tail under
	// site tailSite[i] is layers[tailOff[i]:tailOff[i+1]] in path order.
	layers            []int32
	levelOff          []int32
	tailSite, tailOff []int32
}

// node is a position's record: the virtual edge weight to its parent
// and the key range of the pairs stored in its subtree (both 0 when
// empty, i.e. the subtree stores no pair). A parent's reference to a
// child is the child's own record, so it is stored once.
type node struct {
	edgeW  float64
	lo, hi int
	empty  bool
}

// Config controls construction.
type Config struct {
	// Eps is the paper's eps in (0,1): level radii start at Eps*Radius/2.
	Eps float64
	// MaxLevels caps the number of net levels (Definition 4.2); 0 means
	// uncapped (Definition 3.2).
	MaxLevels int
	// MinNetRadius stops refining once the net radius drops to or below
	// it (the metric's minimum pairwise distance is the natural choice;
	// at that point a net must absorb every remaining node).
	MinNetRadius float64
}

// scratch is the reusable working memory of New and DecodeTree,
// so a tree costs only the allocations it keeps.
type scratch struct {
	ball, order, up, rest       []int
	w                           []float64
	levelOff, tailSite, tailLen []int
	keys                        []int64
	ids                         []int32
	kid                         []node
	// at[v] is 1 + the position of node v in the tree at hand, 0 for
	// other nodes (see index).
	at []int32
}

// index makes sc.at map the ids in members, each below n, to 1 + their
// positions; unindex zeroes those entries again for the next tree.
func (sc *scratch) index(members []int32, n int) {
	if len(sc.at) < n {
		sc.at = make([]int32, n)
	}
	for p, v := range members {
		sc.at[v] = int32(p + 1)
	}
}

func (sc *scratch) unindex(members []int32) {
	for _, v := range members {
		sc.at[v] = 0
	}
}

// spare is a leaky free list of idle scratches, each sized by the
// largest ball it has held, with room for one per worker of a parallel
// build (par.For runs GOMAXPROCS of them). Unlike a sync.Pool it keeps
// them across GCs and under the race detector, so the allocation count
// of a build is deterministic.
var spare = make(chan *scratch, runtime.GOMAXPROCS(0))

func getScratch() *scratch {
	select {
	case sc := <-spare:
		return sc
	default:
		return new(scratch)
	}
}

func putScratch(sc *scratch) {
	select {
	case spare <- sc:
	default:
	}
}

// grow returns s emptied, with capacity for at least n elements.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// New builds the search tree on B_center(radius). The APSP oracle is
// used only at construction time (the preprocessing phase).
func New[D any](a metric.Distancer, center int, radius float64, cfg Config) (*Tree[D], error) {
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("searchtree: eps %v out of (0,1)", cfg.Eps)
	}
	if cfg.MinNetRadius <= 0 {
		return nil, fmt.Errorf("searchtree: MinNetRadius %v must be positive", cfg.MinNetRadius)
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.ball = a.AppendBall(sc.ball[:0], center, radius)
	ball := sc.ball
	sort.Ints(ball)
	m := len(ball)
	// order lists the nodes as they join the tree: the center, each net
	// level (level l is order[levelOff[l]:levelOff[l+1]]), then the
	// tails; up[i] and w[i] are order[i]'s parent and edge
	// weight. Every level is a subsequence of the sorted ball, so it is
	// ascending too. order never outgrows its capacity m, so the prev
	// level sliced from it stays valid while the next one is appended.
	order, up, w := grow(sc.order, m), grow(sc.up, m), grow(sc.w, m)
	order, up, w = append(order, center), append(up, -1), append(w, 0)
	levelOff := append(sc.levelOff[:0], 0, 1)
	rest := grow(sc.rest, m)
	for _, v := range ball {
		if v != center {
			rest = append(rest, v)
		}
	}
	t := &Tree[D]{Center: center, Radius: radius, Eps: cfg.Eps}
	tailSite, tailLen := sc.tailSite[:0], sc.tailLen[:0]
	rho := cfg.Eps * radius / 2
	for level := 1; len(rest) > 0; level++ {
		start := len(order)
		prev := order[levelOff[level-1]:start]
		if cfg.MaxLevels > 0 && level > cfg.MaxLevels {
			// Definition 4.2(ii): each remaining node joins the Voronoi
			// region of its nearest top-net site; a region's nodes hang
			// as a path under the site, ascending, with virtual edge
			// weight 2*eps*r/n.
			t.TailEdgeW = 2 * cfg.Eps * radius / float64(a.N())
			keys := grow(sc.keys, len(rest))
			for _, v := range rest {
				s, _ := a.Nearest(v, prev)
				keys = append(keys, int64(sort.SearchInts(prev, s))<<32|int64(v))
			}
			slices.Sort(keys) // by site index, then id
			for k, key := range keys {
				parent := order[len(order)-1]
				if k == 0 || keys[k-1]>>32 != key>>32 {
					parent = prev[key>>32]
					tailSite, tailLen = append(tailSite, parent), append(tailLen, 0)
				}
				tailLen[len(tailLen)-1]++
				order, up, w = append(order, int(key&(1<<32-1))), append(up, parent), append(w, t.TailEdgeW)
			}
			sc.keys = keys
			break
		}
		// Greedy net of the remaining nodes at radius rho (everything
		// joins once rho is at or below the minimum pairwise distance).
		if rho <= cfg.MinNetRadius {
			order = append(order, rest...)
			rest = rest[:0]
		} else {
			k := 0
			for _, v := range rest {
				ok := true
				for _, y := range order[start:] {
					if a.Dist(v, y) < rho {
						ok = false
						break
					}
				}
				if ok {
					order = append(order, v)
				} else {
					rest[k] = v
					k++
				}
			}
			rest = rest[:k]
		}
		for _, v := range order[start:] {
			p, d := a.Nearest(v, prev)
			up, w = append(up, p), append(w, d)
		}
		levelOff = append(levelOff, len(order))
		rho /= 2
	}
	sc.order, sc.up, sc.w, sc.rest = order, up, w, rest
	sc.levelOff, sc.tailSite, sc.tailLen = levelOff, tailSite, tailLen
	t.assemble(sc, a.N(), levelOff, tailSite, tailLen)
	return t, nil
}

// assemble lays out a tree from New's sorted ball and joining order
// (in sc, over an n-node graph), the level offsets, and the tail sites
// with their tail lengths. No pairs are stored yet.
func (t *Tree[D]) assemble(sc *scratch, n int, levelOff, tailSite, tailLen []int) {
	m, levels := len(sc.ball), len(levelOff)-1
	t.alloc(m, m, levels, len(tailSite))
	for p, v := range sc.ball {
		t.members[p] = int32(v)
	}
	sc.index(t.members, n)
	defer sc.unindex(t.members)
	t.setRanges(levelOff, tailSite, tailLen)
	for i, v := range sc.order {
		p := sc.at[v] - 1
		t.layers[i], t.node[p].edgeW, t.parent[p] = int32(v), sc.w[i], -1
		if up := sc.up[i]; up >= 0 {
			t.parent[p] = sc.at[up] - 1
		}
		if t.level[p] = int32(sort.SearchInts(levelOff[1:], i+1)); t.level[p] == int32(levels) {
			t.level[p] = -1
		}
	}
	t.root = sc.at[t.Center] - 1
	// Children as CSR in ascending position order, which is the order
	// they joined: count, prefix-sum, fill while advancing each start
	// to its end, then shift the ends back into starts.
	for _, pp := range t.parent {
		if pp >= 0 {
			t.kidOff[pp+1]++
		}
	}
	for p := 0; p < m; p++ {
		t.kidOff[p+1] += t.kidOff[p]
	}
	for c, pp := range t.parent {
		if pp >= 0 {
			t.kids[t.kidOff[pp]] = int32(c)
			t.kidOff[pp]++
		}
	}
	copy(t.kidOff[1:], t.kidOff[:m])
	t.kidOff[0] = 0
	for p := range t.node {
		t.node[p].empty = true
	}
}

// setRanges fills the level and tail ranges of layers: level l is
// [levelOff[l], levelOff[l+1]), and the tails follow, tail i (under
// tailSite[i]) holding tailLen[i] ids.
func (t *Tree[D]) setRanges(levelOff, tailSite, tailLen []int) {
	at := levelOff[len(levelOff)-1]
	for l, off := range levelOff {
		t.levelOff[l] = int32(off)
	}
	for i, s := range tailSite {
		t.tailSite[i], t.tailOff[i] = int32(s), int32(at)
		at += tailLen[i]
	}
	t.tailOff[len(tailSite)] = int32(at)
}

// alloc sizes t's arrays for m members, a layer list of the given
// length, the given number of net levels and tail sites; every int32
// array is carved from one allocation.
func (t *Tree[D]) alloc(m, layers, levels, tails int) {
	block := make([]int32, 7*m+layers+levels+1+2*tails+1)
	take := func(k int) []int32 {
		s := block[:k:k]
		block = block[k:]
		return s
	}
	t.members, t.parent, t.level = take(m), take(m), take(m)
	t.kidOff, t.kids = take(m+1), take(m-1)
	t.pairLo, t.pairHi = take(m), take(m)
	t.layers, t.levelOff = take(layers), take(levels+1)
	t.tailSite, t.tailOff = take(tails), take(tails+1)
	t.node = make([]node, m)
}

// Len returns the number of tree nodes (the ball's size).
func (t *Tree[D]) Len() int { return len(t.members) }

// Member returns the graph node at position p.
func (t *Tree[D]) Member(p int) int { return int(t.members[p]) }

// Pos returns v's position, or -1 when v is not a tree node.
func (t *Tree[D]) Pos(v int) int { return pos(t.members, v) }

// pos binary-searches the ascending id list members for v.
func pos(members []int32, v int) int {
	if p, ok := slices.BinarySearch(members, int32(v)); ok && int(int32(v)) == v {
		return p
	}
	return -1
}

// Parent returns the position of p's tree parent, -1 at the center.
func (t *Tree[D]) Parent(p int) int { return int(t.parent[p]) }

// Degree returns the number of children of the node at position p.
func (t *Tree[D]) Degree(p int) int { return int(t.kidOff[p+1] - t.kidOff[p]) }

// Pairs returns the pairs stored at position p, sorted by key.
func (t *Tree[D]) Pairs(p int) []Pair[D] { return t.pairs[t.pairLo[p]:t.pairHi[p]] }

// NumLevels returns the number of net levels, the center's included.
func (t *Tree[D]) NumLevels() int { return len(t.levelOff) - 1 }

// Level returns the node ids of net level l (U_l), ascending.
func (t *Tree[D]) Level(l int) []int32 { return t.layers[t.levelOff[l]:t.levelOff[l+1]] }

// Tail returns the node ids hanging under the i-th tail site, in path
// order.
func (t *Tree[D]) Tail(i int) []int32 { return t.layers[t.tailOff[i]:t.tailOff[i+1]] }

// Height returns the maximum virtual-edge distance from the center to
// any tree node; Equation (3) bounds it by (1+O(eps)) * Radius.
func (t *Tree[D]) Height() float64 {
	height := 0.0
	for p := range t.members {
		h := 0.0
		for q := p; t.parent[q] != -1; q = int(t.parent[q]) {
			h += t.node[q].edgeW
		}
		if h > height {
			height = h
		}
	}
	return height
}

// Store distributes the pairs over the tree per Algorithm 1: sort by
// key, hand each DFS-visited node an even quota, then record subtree
// ranges bottom-up. The tree takes ownership of pairs (it is sorted in
// place and kept). Store replaces any previous contents.
func (t *Tree[D]) Store(pairs []Pair[D]) {
	slices.SortFunc(pairs, func(x, y Pair[D]) int { return cmp.Compare(x.Key, y.Key) })
	t.pairs = pairs
	t.store(int(t.root), 0)
}

// store gives p, the node with DFS index q, the pairs
// [floor(q*k/m), floor((q+1)*k/m)), then does the same for p's subtree
// in DFS order and records p's subtree range. It returns the DFS index
// after the subtree.
func (t *Tree[D]) store(p, q int) int {
	k, m := len(t.pairs), len(t.members)
	t.pairLo[p], t.pairHi[p] = int32(q*k/m), int32((q+1)*k/m)
	nd := node{edgeW: t.node[p].edgeW, empty: true}
	if own := t.Pairs(p); len(own) > 0 {
		nd.lo, nd.hi, nd.empty = own[0].Key, own[len(own)-1].Key, false
	}
	q++
	for _, c := range t.kids[t.kidOff[p]:t.kidOff[p+1]] {
		q = t.store(int(c), q)
		if cn := t.node[c]; !cn.empty {
			if nd.empty || cn.lo < nd.lo {
				nd.lo = cn.lo
			}
			if nd.empty || cn.hi > nd.hi {
				nd.hi = cn.hi
			}
			nd.empty = false
		}
	}
	t.node[p] = nd
	return q
}

// Step is one step of Algorithm 2 at position p: it returns the child
// position whose subtree range holds key, or -1 and the data stored
// under key at p itself (found reports whether there is one).
func (t *Tree[D]) Step(p, key int) (child int, data D, found bool) {
	for _, c := range t.kids[t.kidOff[p]:t.kidOff[p+1]] {
		if cn := &t.node[c]; !cn.empty && cn.lo <= key && key <= cn.hi {
			return int(c), data, false
		}
	}
	for _, pr := range t.Pairs(p) {
		if pr.Key == key {
			return -1, pr.Data, true
		}
	}
	return -1, data, false
}

// Search performs Algorithm 2: descend from the center following child
// ranges. It returns the found data (or the zero value), whether the
// key was found, and the descent trail of graph node ids starting at
// the center — the caller realizes the trail physically and doubles it
// for the return leg.
func (t *Tree[D]) Search(key int) (data D, found bool, trail []int) {
	p := int(t.root)
	trail = append(trail, t.Member(p))
	for {
		c, d, ok := t.Step(p, key)
		if c < 0 {
			return d, ok, trail
		}
		p = c
		trail = append(trail, t.Member(p))
	}
}

// VirtualCost returns the sum of virtual edge weights along a trail.
func (t *Tree[D]) VirtualCost(trail []int) float64 {
	c := 0.0
	for i := 1; i < len(trail); i++ {
		c += t.node[t.Pos(trail[i])].edgeW
	}
	return c
}

// MaxDegree returns the largest number of children of any tree node.
func (t *Tree[D]) MaxDegree() int {
	deg := 0
	for p := range t.members {
		deg = max(deg, t.Degree(p))
	}
	return deg
}

// LevelRadius returns the net radius used for level t >= 1
// (eps*r/2^t); it reports 0 for the tail level -1.
func (t *Tree[D]) LevelRadius(level int) float64 {
	if level < 1 {
		return 0
	}
	return t.Eps * t.Radius / math.Pow(2, float64(level))
}

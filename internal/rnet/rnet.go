// Package rnet implements r-nets (Definition 2.1), the nested hierarchy
// of 2^i-nets {Y_i} from Section 2, zooming sequences u(i), and the
// netting tree T({Y_i}) with its DFS leaf enumeration l(u) and subtree
// ranges Range(x, i) from Section 4.1.
//
// The paper normalizes the minimum pairwise distance to 1 and assumes
// Delta is a power of two. We instead anchor level 0 at the actual
// minimum pairwise distance: level i covers radius Radius(i) =
// minPairDistance * 2^i, which is the same hierarchy up to a constant
// shift of indices.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package rnet

import (
	"math"

	"compactrouting/internal/metric"
)

// Net greedily computes an r-net of candidates (all nodes if nil) seeded
// with the given existing members: every candidate ends up within
// distance r of the result, and all non-seed members are pairwise >= r
// apart (seeds are trusted to satisfy the separation already, which
// holds when they form a net of a coarser level). Candidates are
// examined in increasing node id, making the construction deterministic.
//
// The scan is center-first: a candidate is rejected iff some member y
// holds Dist(y, v) < r, so instead of probing every candidate against
// every member, each member marks its own ball once. Ball(y, r) is
// inclusive, so the strict boundary is re-checked with Dist(y, m) < r —
// a cache hit on the lazy backend, whose row is already built past m.
// Seed balls commute with the greedy (a candidate near a seed is
// rejected no matter what was accepted before it), so they are marked
// first in one metric.SweepBalls pass (rows built in parallel, read
// once, never cached); each acceptance then marks its own ball before
// the scan moves on, reproducing the serial greedy bit for bit while
// touching only ball-local state.
func Net(a metric.Distancer, r float64, seed, candidates []int) []int {
	n := a.N()
	out := make([]int, 0, len(seed)+8)
	out = append(out, seed...)
	if candidates == nil {
		candidates = make([]int, n)
		for i := range candidates {
			candidates[i] = i
		}
	}
	covered := make([]bool, n)
	var scratch []int
	mark := func(y int) {
		scratch = a.AppendBall(scratch[:0], y, r)
		for _, m := range scratch {
			if !covered[m] && a.Dist(y, m) < r {
				covered[m] = true
			}
		}
	}
	metric.SweepBalls(a, seed, r, func(_ int, ball metric.BallRow) {
		for k, m := range ball.Nodes {
			if ball.Dist(k) < r {
				covered[m] = true
			}
		}
	})
	for _, v := range candidates {
		if !covered[v] {
			out = append(out, v)
			mark(v)
		}
	}
	return out
}

// Hierarchy is the nested chain Y_L ⊆ Y_{L-1} ⊆ ... ⊆ Y_0 = V of
// 2^i-nets, built top-down per Section 2: Y_L is a singleton and each
// Y_i greedily extends Y_{i+1}.
type Hierarchy struct {
	a    metric.Distancer
	base float64 // radius of level 0; Radius(i) = base * 2^i
	L    int     // top level; Levels[L] is a singleton
	// Levels[i] lists Y_i members in the order the greedy construction
	// chose them (coarser-level members first).
	Levels [][]int
	// maxLevel[v] is the highest i with v ∈ Y_i.
	maxLevel []int
	// pos[i][v] is v's index within Levels[i], or -1.
	pos [][]int32
	// zoomParent[i][v], defined for v ∈ Y_i and i < L, is v's nearest
	// node in Y_{i+1} (ties by least id): the parent of (v, i) in the
	// netting tree, and the next element after v in any zooming
	// sequence currently at (v, i).
	zoomParent [][]int32
}

// NewHierarchy builds the net hierarchy for the metric, rooting Y_L at
// the given node (the paper allows an arbitrary root).
func NewHierarchy(a metric.Distancer, root int) *Hierarchy {
	n := a.N()
	base := a.MinPairDistance()
	L := 0
	if n > 1 {
		// Need base*2^L >= eccentricity(root) so the singleton Y_L
		// covers everything. The eccentricity is the tight requirement
		// and costs one Dijkstra row on the lazy backend, where the
		// diameter would cost all n of them.
		L = int(math.Ceil(math.Log2(a.Eccentricity(root) / base)))
		if L < 0 {
			L = 0
		}
	} else {
		base = 1
	}
	h := &Hierarchy{
		a:        a,
		base:     base,
		L:        L,
		Levels:   make([][]int, L+1),
		maxLevel: make([]int, n),
	}
	h.Levels[L] = []int{root}
	for i := L - 1; i >= 0; i-- {
		h.Levels[i] = Net(a, h.Radius(i), h.Levels[i+1], nil)
	}
	h.finish()
	return h
}

// NewHierarchyFromLevels wraps externally elected net levels — the
// membership sets the distributed protocol in internal/dist builds by
// message passing — into a Hierarchy, deriving positions, max levels
// and zoom parents exactly as NewHierarchy does for its own greedy
// election. levels[i] must list Y_i's members; the chain must be nested
// with levels[len(levels)-1] a singleton and levels[0] = V, and base is
// the level-0 net radius (Radius(i) = base * 2^i). The caller vouches
// for the net properties; a hierarchy wrapped around the output of a
// correct election is indistinguishable from a NewHierarchy build.
func NewHierarchyFromLevels(a metric.Distancer, base float64, levels [][]int) *Hierarchy {
	h := &Hierarchy{
		a:        a,
		base:     base,
		L:        len(levels) - 1,
		Levels:   levels,
		maxLevel: make([]int, a.N()),
	}
	h.finish()
	return h
}

// finish derives the lookup structures (pos, maxLevel, zoomParent) from
// the Levels sets.
func (h *Hierarchy) finish() {
	n := len(h.maxLevel)
	for _, v := range h.Levels[0] {
		h.maxLevel[v] = 0
	}
	h.pos = make([][]int32, h.L+1)
	for i := 0; i <= h.L; i++ {
		h.pos[i] = make([]int32, n)
		for v := range h.pos[i] {
			h.pos[i][v] = -1
		}
		for k, v := range h.Levels[i] {
			h.pos[i][v] = int32(k)
			h.maxLevel[v] = i // levels ascend, so the last write wins
		}
	}
	h.zoomParent = make([][]int32, h.L)
	// Nearest minimizes (Dist(y, v), y) over coarse members y, and the
	// net coverage property puts the winner within Radius(i+1), so a
	// sweep of each coarse member's ball of that radius sees every
	// winner (and every tie — those sit strictly inside the inclusive
	// ball too). Minimizing (dist, id) per member over the sweep is
	// therefore bit-identical to the full scan, but touches only
	// ball-local state: the lazy backend builds |Y_{i+1}| truncated rows
	// (one metric.SweepBalls pass) instead of extending every member's
	// row.
	bestD := make([]float64, n)
	best := make([]int32, n)
	for i := 0; i < h.L; i++ {
		h.zoomParent[i] = make([]int32, n)
		for v := range h.zoomParent[i] {
			h.zoomParent[i][v] = -1
		}
		lv := h.Levels[i]
		coarse := h.Levels[i+1]
		r := h.Radius(i + 1)
		for v := range best {
			best[v] = -1
			bestD[v] = math.Inf(1)
		}
		metric.SweepBalls(h.a, coarse, r, func(y int, ball metric.BallRow) {
			for k, m := range ball.Nodes {
				if h.pos[i][m] < 0 {
					continue
				}
				d := ball.Dist(k)
				//determinlint:allow floateq deliberate exact tie-break: must reproduce Nearest's (distance, id) minimization bit for bit
				if d < bestD[m] || (d == bestD[m] && int32(y) < best[m]) {
					bestD[m], best[m] = d, int32(y)
				}
			}
		})
		for _, v := range lv {
			if best[v] < 0 {
				// Externally elected levels (NewHierarchyFromLevels) may
				// be looser than the greedy's coverage radius; fall back
				// to the full scan for any member the sweep missed.
				p, _ := h.a.Nearest(v, coarse)
				best[v] = int32(p)
			}
			h.zoomParent[i][v] = best[v]
		}
	}
}

// Base returns the radius of level 0 (the minimum pairwise distance).
func (h *Hierarchy) Base() float64 { return h.base }

// TopLevel returns L, the index of the singleton top level. The paper's
// log Delta corresponds to L.
func (h *Hierarchy) TopLevel() int { return h.L }

// Radius returns the net radius of level i, base * 2^i.
func (h *Hierarchy) Radius(i int) float64 {
	return h.base * math.Pow(2, float64(i))
}

// InLevel reports whether v ∈ Y_i.
func (h *Hierarchy) InLevel(v, i int) bool {
	return i >= 0 && i <= h.L && h.pos[i][v] >= 0
}

// MaxLevel returns the highest level containing v.
func (h *Hierarchy) MaxLevel(v int) int { return h.maxLevel[v] }

// PosInLevel returns v's index within Levels[i], or -1.
func (h *Hierarchy) PosInLevel(v, i int) int { return int(h.pos[i][v]) }

// ZoomStep returns u(i+1) given that x = u(i) ∈ Y_i: the nearest node to
// x in Y_{i+1}, ties broken by least id. It panics if x ∉ Y_i or i >= L,
// which would indicate a scheme bug rather than bad input.
func (h *Hierarchy) ZoomStep(x, i int) int {
	if i >= h.L || h.pos[i][x] < 0 {
		panic("rnet: ZoomStep outside hierarchy")
	}
	return int(h.zoomParent[i][x])
}

// Zoom returns the full zooming sequence u(0..L) of u.
func (h *Hierarchy) Zoom(u int) []int {
	seq := make([]int, h.L+1)
	seq[0] = u
	for i := 0; i < h.L; i++ {
		seq[i+1] = h.ZoomStep(seq[i], i)
	}
	return seq
}

// Ring returns X_i(u) = B_u(Radius(i)/eps) ∩ Y_i, in increasing distance
// from u (Section 4.1).
func (h *Hierarchy) Ring(u, i int, eps float64) []int {
	ball := h.a.Ball(u, h.Radius(i)/eps)
	ring := make([]int, 0, 8)
	for _, v := range ball {
		if h.pos[i][v] >= 0 {
			ring = append(ring, v)
		}
	}
	return ring
}

// Package labeled implements the paper's labeled (name-dependent)
// compact routing schemes for doubling networks:
//
//   - Simple: a (1+O(eps))-stretch scheme with ceil(log n)-bit labels
//     whose tables store ring entries at every net level, so its
//     storage carries a log(Delta) factor. It plays the role of the
//     Abraham–Gavoille–Goldberg–Malkhi scheme the paper cites as
//     Lemma 3.1 and is the underlying scheme of the simple
//     name-independent scheme (Theorem 1.4).
//
//   - ScaleFree: the paper's Theorem 1.2 scheme. Tables keep ring
//     entries only at the O(log n / eps) levels R(u); everywhere else
//     routing falls through to ball-packing Voronoi cells, per-cell
//     tree routing, and Search Tree II lookups, which removes the
//     log(Delta) dependence.
//
// Node labels are the DFS leaf enumeration of the netting tree
// (Section 4.1): integers in [0, n), the minimum conceivable label.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package labeled

import (
	"fmt"
	"math"
	"sort"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/par"
	"compactrouting/internal/rnet"
	"compactrouting/internal/walk"
)

// ringEntry is one ring record in a node's table: the net point x, the
// netting-tree range of (x, i), the next hop toward x, and whether x is
// still "far" (Algorithm 5's line-3 distance test, precomputed as one
// bit since it only depends on the storing node).
type ringEntry struct {
	x    int32
	lo   int32
	hi   int32
	next int32
	far  bool
}

// ringBits is the encoded size of one ring entry: four ids and a flag.
func ringBits(idBits int) int { return 4*idBits + 1 }

// findEntry returns the entry whose range contains label, or nil.
func findEntry(entries []ringEntry, label int) *ringEntry {
	for k := range entries {
		if int(entries[k].lo) <= label && label <= int(entries[k].hi) {
			return &entries[k]
		}
	}
	return nil
}

// Simple is the non-scale-free (1+O(eps))-stretch labeled scheme.
type Simple struct {
	g   *graph.Graph
	a   metric.Distancer
	h   *rnet.Hierarchy
	nt  *rnet.NettingTree
	eps float64
	// ringFactor scales ring radii (see NewSimpleRingFactor).
	ringFactor float64
	name       string
	// rings[v][i] is X_i(v) with ring radius ringFactor*Radius(i),
	// for every level i in [0, L].
	rings  [][][]ringEntry
	tblBit []int
	idBits int
}

var _ core.LabeledScheme = (*Simple)(nil)

// defaultRingFactor is the ring radius multiplier: X_i(u) =
// B_u(F*2^i) ∩ Y_i with F = ringFactor/eps. F = 2/eps yields stretch
// <= 1 + 4eps/(1-eps).
const defaultRingFactor = 2.0

// NewSimple compiles the scheme. Preprocessing is O(n^2 log Delta) on
// the dense backend and ball-local on the lazy one.
func NewSimple(g *graph.Graph, a metric.Distancer, eps float64) (*Simple, error) {
	return NewSimpleRingFactor(g, a, eps, defaultRingFactor)
}

// NewSimpleRingFactor compiles the scheme with an explicit ring radius
// multiplier (rings have radius factor*2^i/eps). Values below 2 shrink
// tables but weaken the stretch guarantee; it exists for the ablation
// experiments. factor must be at least 1 (below that the zooming
// ancestor may fall outside the ring and routing gets stuck).
//
// The ring build is center-first: instead of intersecting every node's
// ball with Y_i, each net point x ∈ Y_i scatters itself into the ring
// of every node of B_x(radius). Membership and next hops then read only
// center rows — the ball of x, and NextHop(v, x) which is v's parent in
// x's own tree — so the lazy backend builds |Y_i| truncated rows per
// level, each once, through metric.SweepBalls (built in parallel,
// visited in order, never cached) instead of one full row per node.
// Sweeping centers in ascending id leaves each ring sorted by x.
func NewSimpleRingFactor(g *graph.Graph, a metric.Distancer, eps, factor float64) (*Simple, error) {
	core.NoteSchemeBuild()
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("labeled: eps %v out of (0, 0.5]", eps)
	}
	if factor < 1 {
		return nil, fmt.Errorf("labeled: ring factor %v below 1", factor)
	}
	h := rnet.NewHierarchy(a, 0)
	nt := rnet.NewNettingTree(h)
	s := &Simple{
		g: g, a: a, h: h, nt: nt, eps: eps,
		ringFactor: factor,
		name:       "labeled/simple",
		rings:      make([][][]ringEntry, g.N()),
		tblBit:     make([]int, g.N()),
		idBits:     bits.UintBits(g.N()),
	}
	n := g.N()
	for v := 0; v < n; v++ {
		s.rings[v] = make([][]ringEntry, h.TopLevel()+1)
	}
	// Each level's sweep output is collected once, then counting-sorted
	// by v into one exact-size backing slice; every ring is a capped
	// window of it, holding v's entries in sweep (ascending x) order.
	// The sweep keeps 8 bytes per entry (v and its next hop) plus one
	// record per center, which the scatter expands into ring entries.
	type sweptBall struct {
		x, lo, hi int32
		end       int // hops of this ball end here
	}
	type hop struct{ v, next int32 }
	var (
		balls []sweptBall
		hops  []hop
	)
	off := make([]int, n)
	centers := make([]int, 0, n)
	for i := 0; i <= h.TopLevel(); i++ {
		radius := s.ringFactor * h.Radius(i) / s.eps
		centers = append(centers[:0], h.Levels[i]...)
		sort.Ints(centers)
		balls, hops = balls[:0], hops[:0]
		metric.SweepBalls(a, centers, radius, func(x int, ball metric.BallRow) {
			for k, v := range ball.Nodes {
				next := int32(ball.Parent(k))
				if next < 0 {
					next = v // x == v: the entry's hop is never followed
				}
				hops = append(hops, hop{v: v, next: next})
			}
			rg, _ := nt.Range(x, i)
			balls = append(balls, sweptBall{x: int32(x), lo: int32(rg.Lo), hi: int32(rg.Hi), end: len(hops)})
		})
		clear(off)
		for _, hp := range hops {
			off[hp.v]++
		}
		sum := 0
		for v, c := range off {
			off[v] = sum
			sum += c
		}
		backing := make([]ringEntry, len(hops))
		start := 0
		for _, b := range balls {
			for _, hp := range hops[start:b.end] {
				backing[off[hp.v]] = ringEntry{x: b.x, lo: b.lo, hi: b.hi, next: hp.next}
				off[hp.v]++
			}
			start = b.end
		}
		// off[v] is now the end of v's ring and the start of v+1's.
		lo := 0
		for v, hi := range off {
			if hi > lo {
				s.rings[v][i] = backing[lo:hi:hi]
			}
			lo = hi
		}
	}
	// The bit accounting is embarrassingly parallel: iteration v reads
	// only rings[v] and writes only tblBit[v] (see EncodeTable for the
	// layout it mirrors bit for bit).
	par.For(n, func(v int) {
		bitsHere := bits.UvarintLen(uint64(h.TopLevel()+1)) + s.idBits
		for i := 0; i <= h.TopLevel(); i++ {
			ring := s.rings[v][i]
			bitsHere += bits.UvarintLen(uint64(len(ring))) + len(ring)*ringBits(s.idBits)
		}
		s.tblBit[v] = bitsHere
	})
	return s, nil
}

// SchemeName implements core.LabeledScheme.
func (s *Simple) SchemeName() string { return s.name }

// LabelOf returns v's ceil(log n)-bit label: the netting-tree DFS leaf
// index.
func (s *Simple) LabelOf(v int) int { return s.nt.Label(v) }

// NodeOfLabel inverts LabelOf (preprocessing-side helper for tests and
// the name-independent schemes).
func (s *Simple) NodeOfLabel(l int) int { return s.nt.NodeOfLabel(l) }

// TableBits returns the routing table size of v in bits.
func (s *Simple) TableBits(v int) int { return s.tblBit[v] }

// Eps returns the scheme's stretch parameter.
func (s *Simple) Eps() float64 { return s.eps }

// minimalHit returns the lowest level whose ring at v contains the
// label's net ancestor, with the matching entry.
func (s *Simple) minimalHit(v, label int) (int, *ringEntry, bool) {
	for i := 0; i <= s.h.TopLevel(); i++ {
		if e := findEntry(s.rings[v][i], label); e != nil {
			return i, e, true
		}
	}
	return 0, nil, false
}

// RouteToLabel delivers a packet from src to the node labeled label by
// walking the local Step function (walk.Route). Every forwarding
// decision reads only the current node's table and the packet header
// (destination label + current intermediate target).
func (s *Simple) RouteToLabel(src, label int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("labeled: source %d out of range", src)
	}
	return walk.Route[SimpleHeader](s.g, s, src, label, 4*s.g.N()*(s.h.TopLevel()+2), nil)
}

// MaxLevel exposes the hierarchy height (log Delta) for reports.
func (s *Simple) MaxLevel() int { return s.h.TopLevel() }

// Hierarchy exposes the shared net hierarchy (the name-independent
// schemes reuse it).
func (s *Simple) Hierarchy() *rnet.Hierarchy { return s.h }

// NettingTree exposes the shared netting tree.
func (s *Simple) NettingTree() *rnet.NettingTree { return s.nt }

// StretchBound returns the analytical stretch guarantee, 1+4eps/(1-eps)
// at the default ring factor 2 (generalizing to 1 + (2F)/(F/2 - 1) * eps
// -ish for factor F; smaller factors weaken it).
func (s *Simple) StretchBound() float64 {
	f := s.ringFactor
	denom := f/2 - s.eps
	if denom <= 0 {
		return math.Inf(1)
	}
	return 1 + 2*f*s.eps/denom
}

// checkFar evaluates Algorithm 5's line-3 distance test
// d(u, x) >= 2^{i-1}/eps - 2^i for a level of the given radius; it is
// precomputed into the far bit of scale-free ring entries.
func checkFar(d, radius, eps float64) bool {
	return d >= radius/(2*eps)-radius
}

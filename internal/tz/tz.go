// Package tz implements the Thorup–Zwick stretch-3 compact routing
// scheme for general graphs (reference [29] of the paper, "Compact
// routing schemes", SPAA 2001, k = 2), as a comparator: on general
// graphs stretch below 3 requires Omega(sqrt(n)) tables, and TZ meets
// stretch exactly 3 with ~O(sqrt(n log n)) tables — against which the
// paper's doubling-metric schemes achieve (1+eps) with polylog tables.
//
// Construction: a random landmark sample A; every node u stores a next
// hop toward every landmark and toward every member of its cluster
// C(u) = { v : d(u, v) < d(v, A) }, plus its local tree-routing tables
// for each landmark's shortest-path tree. The label of v names its
// home landmark a(v) (the nearest in A) and v's tree-routing label in
// a(v)'s tree. Routing tries the cluster (optimal paths) and otherwise
// relays via the destination's home landmark: cost <= d(u,v) + 2
// d(v,A) <= 3 d(u,v) whenever the cluster misses.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package tz

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
	"compactrouting/internal/walk"
)

// Scheme is a compiled stretch-3 TZ routing scheme.
type Scheme struct {
	g *graph.Graph
	a metric.Distancer
	// landmarks, ascending id; landmarkIdx inverts it.
	landmarks   []int
	landmarkIdx map[int]int
	// home[v] = index into landmarks of v's nearest landmark.
	home []int32
	// distA[v] = d(v, A).
	distA []float64
	// trees[l] = tree routing on the SPT of landmarks[l].
	trees []*treeroute.Scheme
	// cluster[u] maps cluster member -> next hop from u.
	cluster []map[int32]int32
	// toLandmark[u][l] = next hop from u toward landmarks[l].
	toLandmark [][]int32
	tblBits    []int
	idBits     int
}

var _ core.LabeledScheme = (*Scheme)(nil)

// New compiles the scheme. sampleFactor scales the landmark count
// |A| = ceil(sampleFactor * sqrt(n * ln n)) (1 is the classic choice;
// it balances the landmark table against the expected cluster size).
func New(g *graph.Graph, a metric.Distancer, sampleFactor float64, seed int64) (*Scheme, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("tz: need at least 2 nodes")
	}
	if sampleFactor <= 0 {
		return nil, fmt.Errorf("tz: sampleFactor %v must be positive", sampleFactor)
	}
	count := int(math.Ceil(sampleFactor * math.Sqrt(float64(n)*math.Log(float64(n)))))
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	landmarks := append([]int(nil), perm[:count]...)
	sort.Ints(landmarks)
	s := &Scheme{
		g: g, a: a,
		landmarks:   landmarks,
		landmarkIdx: make(map[int]int, count),
		home:        make([]int32, n),
		distA:       make([]float64, n),
		trees:       make([]*treeroute.Scheme, count),
		cluster:     make([]map[int32]int32, n),
		toLandmark:  make([][]int32, n),
		tblBits:     make([]int, n),
		idBits:      bits.UintBits(n),
	}
	for i, l := range landmarks {
		s.landmarkIdx[l] = i
	}
	// Home landmarks and d(v, A); ties by landmark id (ascending scan).
	for v := 0; v < n; v++ {
		best, bd := -1, math.Inf(1)
		for i, l := range landmarks {
			if d := a.Dist(v, l); d < bd {
				best, bd = i, d
			}
		}
		s.home[v] = int32(best)
		s.distA[v] = bd
	}
	// Landmark shortest-path trees with tree routing.
	for i, l := range landmarks {
		spt := metric.Dijkstra(g, l)
		parent := make([]int, n)
		copy(parent, spt.Parent)
		parent[l] = -1
		tr, err := treeroute.New(parent, l)
		if err != nil {
			return nil, fmt.Errorf("tz: landmark tree %d: %w", l, err)
		}
		s.trees[i] = tr
	}
	// Clusters C(u) = { v : d(u,v) < d(v,A) } with next hops, and the
	// per-landmark next hops.
	for u := 0; u < n; u++ {
		s.cluster[u] = make(map[int32]int32)
		for v := 0; v < n; v++ {
			if u != v && a.Dist(u, v) < s.distA[v] {
				s.cluster[u][int32(v)] = int32(a.NextHop(u, v))
			}
		}
		s.toLandmark[u] = make([]int32, count)
		for i, l := range landmarks {
			if u == l {
				s.toLandmark[u][i] = int32(u)
			} else {
				s.toLandmark[u][i] = int32(a.NextHop(u, l))
			}
		}
	}
	// Storage: landmark next hops, cluster entries, per-landmark tree
	// tables, home landmark, d(v,A) quantized to an id-width field.
	for u := 0; u < n; u++ {
		b := s.idBits + 2*s.idBits // home + own tree label-ish state
		b += count * s.idBits      // next hop per landmark
		b += len(s.cluster[u]) * 2 * s.idBits
		for i := range s.trees {
			b += s.trees[i].TableBits(u)
		}
		s.tblBits[u] = b
	}
	return s, nil
}

// Landmarks returns the landmark count (for reports).
func (s *Scheme) Landmarks() int { return len(s.landmarks) }

// MaxClusterSize returns the largest cluster (the quantity the TZ
// sampling argument bounds by ~4n/|A| whp).
func (s *Scheme) MaxClusterSize() int {
	max := 0
	for _, c := range s.cluster {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// SchemeName implements core.LabeledScheme.
func (s *Scheme) SchemeName() string { return "tz/stretch-3" }

// LabelOf returns v's label: we use v's id; the full routing label
// (home landmark + tree label) is derived by the source from it at no
// extra table cost because the header carries it (LabelBitsOf reports
// the true label size).
func (s *Scheme) LabelOf(v int) int { return v }

// LabelBitsOf returns the size of v's full TZ label: v's id, its home
// landmark, and its tree-routing label in the home landmark's tree.
func (s *Scheme) LabelBitsOf(v int) int {
	home := int(s.home[v])
	return 2*s.idBits + s.trees[home].Label(v).Bits()
}

// TableBits returns u's table size in bits.
func (s *Scheme) TableBits(v int) int { return s.tblBits[v] }

// Header is the TZ packet header: the destination's full label — its
// id, its home landmark and its tree-routing label in that landmark's
// tree — and whether the packet has reached the home landmark and
// descends its tree.
type Header struct {
	Dst   int32
	Home  int32 // index into the landmarks
	Label treeroute.Label
	Tree  bool
	size  int32
}

// Bits returns the header size: the full label (LabelBitsOf) plus a
// 2-bit phase tag.
func (h Header) Bits() int { return int(h.size) }

// PrepareHeader returns the initial header for a delivery to dst.
func (s *Scheme) PrepareHeader(dst int) (Header, error) {
	if dst < 0 || dst >= s.g.N() {
		return Header{}, fmt.Errorf("tz: destination %d out of range", dst)
	}
	home := s.home[dst]
	return Header{
		Dst:   int32(dst),
		Home:  home,
		Label: s.trees[home].Label(dst),
		size:  int32(s.LabelBitsOf(dst) + 2),
	}, nil
}

// Step performs one local TZ forwarding decision at u: a cluster next
// hop while the destination is in u's cluster, otherwise toward the
// destination's home landmark and, once there, down its tree.
func (s *Scheme) Step(u int, h Header) (int, Header, bool, error) {
	if u == int(h.Dst) {
		return u, h, true, nil
	}
	if !h.Tree {
		if next, ok := s.cluster[u][h.Dst]; ok {
			// Cluster phase: v ∈ C(u) persists along the shortest path
			// (d(w,v) <= d(u,v) < d(v,A)), so this never dead-ends.
			return int(next), h, false, nil
		}
		if u != s.landmarks[h.Home] {
			return int(s.toLandmark[u][h.Home]), h, false, nil
		}
		h.Tree = true
	}
	next, arrived, err := s.trees[h.Home].NextHop(u, h.Label)
	if err != nil {
		return 0, h, false, err
	}
	if arrived {
		return 0, h, false, fmt.Errorf("tz: tree routing ended at %d, want %d", u, h.Dst)
	}
	return next, h, false, nil
}

// RouteToLabel routes from src to dst (= label) through Step, within
// 4n hops. The header is charged from the source on, whether or not the
// packet moves.
func (s *Scheme) RouteToLabel(src, label int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("tz: source %d out of range", src)
	}
	r, err := walk.Route[Header](s.g, s, src, label, 4*s.g.N(), nil)
	if err != nil {
		return nil, err
	}
	r.MaxHeaderBits = s.LabelBitsOf(label) + 2
	return r, nil
}

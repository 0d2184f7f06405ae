package searchtree

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
)

// PathRealizer realizes the virtual edges of a Search Tree II
// (Definition 4.2) physically, per Lemma 4.3:
//
//   - net-level edges (u ∈ U_{t-1}, v ∈ U_t) are walked along the
//     canonical shortest path between the endpoints; every interior
//     node conceptually stores a next hop up (toward its nearest
//     U_{t-1} node, shared across edges of the level) and a next hop
//     down per descending edge through it;
//   - tail edges within a site's Voronoi region are walked with a local
//     labeled tree-routing scheme on the region's shortest-path tree.
//
// NextHopToward consults the APSP oracle (equivalent hop-for-hop to
// following the stored entries); StorageBits reports what the stored
// entries would cost per node.
type PathRealizer struct {
	a metric.Distancer
	// members is the tree's ascending member list (shared), for
	// position lookups.
	members []int32
	// tailScheme[i] is the tree-routing scheme on the Voronoi region of
	// the tree's i-th tail site.
	tailScheme []*treeroute.Scheme
	// tailOf[p] is 1 + the tail-site index of the tail node at position
	// p, 0 for net nodes.
	tailOf []int32
	// storage[x] = bits of realization state held at graph node x.
	storage map[int]int
}

// newRealizer returns a realizer for t with its tail-site index filled
// in and no schemes or storage yet.
func newRealizer[D any](a metric.Distancer, t *Tree[D]) *PathRealizer {
	r := &PathRealizer{a: a, members: t.members, tailScheme: make([]*treeroute.Scheme, len(t.tailSite)),
		tailOf: make([]int32, t.Len()), storage: map[int]int{}}
	for i := range r.tailScheme {
		for _, v := range t.Tail(i) {
			r.tailOf[t.Pos(int(v))] = int32(i + 1)
		}
	}
	return r
}

// NewRealizer builds the physical realizer for a search tree. The
// voronoiParent callback computes, for the given tail sites, each graph
// node's owning site index and its parent edge in the per-site
// shortest-path forest (metric.Voronoi has exactly this shape); it is
// only invoked when the tree has tails.
func NewRealizer[D any](a metric.Distancer, t *Tree[D], voronoiParent func(sites []int) ([]int, []int)) (*PathRealizer, error) {
	r := newRealizer(a, t)
	idBits := bits.UintBits(a.N())
	// Net edges: charge interior nodes one shared up-entry per level
	// plus one down-entry per descending edge (Lemma 4.3's layout).
	type upKey struct{ node, level int }
	upSeen := map[upKey]bool{}
	for p := 0; p < t.Len(); p++ {
		if t.Parent(p) < 0 || t.level[p] < 0 {
			continue // root or tail edge
		}
		path := pathBetween(a, t.Member(t.Parent(p)), t.Member(p))
		for _, x := range path[1 : len(path)-1] {
			// Down entry: target v -> next hop (2 ids).
			r.storage[x] += 2 * idBits
			// Up entry: one per (node, level).
			k := upKey{x, int(t.level[p])}
			if !upSeen[k] {
				upSeen[k] = true
				r.storage[x] += 2 * idBits
			}
		}
	}
	// Tail edges: per-site local tree routing over the site's Voronoi
	// region.
	if len(t.tailSite) > 0 {
		sites := make([]int, len(t.tailSite))
		for i := range sites {
			sites[i] = int(t.tailSite[i])
		}
		owner, parent := voronoiParent(sites)
		for i, s := range sites {
			// Extract the parent forest restricted to s's region.
			pa := make([]int, a.N())
			for v := range pa {
				pa[v] = treeroute.NotInTree
				if owner[v] == i {
					pa[v] = parent[v]
				}
			}
			pa[s] = -1
			sch, err := treeroute.New(pa, s)
			if err != nil {
				return nil, fmt.Errorf("searchtree: tail scheme at site %d: %w", s, err)
			}
			r.tailScheme[i] = sch
			for v := 0; v < a.N(); v++ {
				if pa[v] != treeroute.NotInTree {
					r.storage[v] += sch.TableBits(v)
				}
			}
			// Endpoints of tail virtual edges keep each other's local
			// labels.
			prev := s
			for _, v := range t.Tail(i) {
				r.storage[prev] += sch.LabelBits(int(v))
				r.storage[int(v)] += sch.LabelBits(prev)
				prev = int(v)
			}
		}
	}
	return r, nil
}

// tailSchemeOf returns the local scheme of the tail holding tree node
// v, or nil when v is no tail node of the tree.
func (r *PathRealizer) tailSchemeOf(v int) *treeroute.Scheme {
	if p := pos(r.members, v); p >= 0 && r.tailOf[p] > 0 {
		return r.tailScheme[r.tailOf[p]-1]
	}
	return nil
}

// StorageBits returns the realization storage at graph node x.
func (r *PathRealizer) StorageBits(x int) int { return r.storage[x] }

// pathBetween returns the canonical shortest path from u to v using
// APSP next hops.
func pathBetween(a metric.Distancer, u, v int) []int {
	path := []int{u}
	for u != v {
		u = a.NextHop(u, v)
		path = append(path, u)
	}
	return path
}

// NextHopToward returns the next physical hop from node at toward the
// search-tree node target: the local tail tree-routing scheme when the
// walk belongs to a Voronoi tail, and the canonical shortest path (the
// stored Lemma 4.3 entries) otherwise. at must differ from target.
func (r *PathRealizer) NextHopToward(at, target int) (int, error) {
	if at == target {
		return 0, fmt.Errorf("searchtree: NextHopToward(%d, %d): already there", at, target)
	}
	sch := r.tailSchemeOf(target)
	if sch == nil {
		sch = r.tailSchemeOf(at)
	}
	if sch != nil {
		next, arrived, err := sch.NextHop(at, sch.Label(target))
		if err != nil {
			return 0, err
		}
		if arrived {
			return 0, fmt.Errorf("searchtree: NextHopToward arrived unexpectedly")
		}
		return next, nil
	}
	return r.a.NextHop(at, target), nil
}

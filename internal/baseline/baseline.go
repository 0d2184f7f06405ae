// Package baseline implements the two trivial extremes every compact
// routing result is measured against:
//
//   - FullTable: classic shortest-path routing — every node stores a
//     next hop for all n destinations. Stretch exactly 1, Theta(n log n)
//     bits per node: optimal paths, non-compact tables.
//
//   - SingleTree: route along one global shortest-path tree using the
//     tree-routing substrate. O(log² n) bits per node, but stretch up
//     to the tree's distortion (unbounded in the worst case): compact
//     tables, poor paths.
//
// Both work as labeled AND name-independent schemes (their tables are
// indexed by original names directly, so names are labels).
package baseline

import (
	"fmt"
	"math"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
	"compactrouting/internal/walk"
)

// FullTable is the stretch-1 full-routing-table scheme.
type FullTable struct {
	g      *graph.Graph
	a      metric.Distancer
	idBits int
}

var (
	_ core.LabeledScheme         = (*FullTable)(nil)
	_ core.NameIndependentScheme = (*FullTable)(nil)
)

// NewFullTable compiles the scheme (the APSP matrix is its table).
func NewFullTable(g *graph.Graph, a metric.Distancer) *FullTable {
	core.NoteSchemeBuild()
	return &FullTable{g: g, a: a, idBits: bits.UintBits(g.N())}
}

// SchemeName implements the scheme interfaces.
func (s *FullTable) SchemeName() string { return "baseline/full-table" }

// LabelOf returns v itself: the scheme needs no designer labels.
func (s *FullTable) LabelOf(v int) int { return v }

// NameOf returns v itself (identity naming; the scheme is trivially
// name-independent since its table covers every destination).
func (s *FullTable) NameOf(v int) int { return v }

// TableBits returns n-1 next-hop entries of ceil(log n) bits.
func (s *FullTable) TableBits(v int) int { return (s.g.N() - 1) * s.idBits }

// StretchBound is 1: every route is a shortest path.
func (s *FullTable) StretchBound() float64 { return 1 }

// RouteToLabel walks the shortest path (fewer than n hops) using
// per-node next hops. The header is charged the fixed-width destination
// id, not the Destination varint the serving plane measures.
func (s *FullTable) RouteToLabel(src, label int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("baseline: source %d out of range", src)
	}
	r, err := walk.Route[Destination](s.g, s, src, label, 0, nil)
	if err != nil {
		return nil, err
	}
	r.MaxHeaderBits = s.idBits
	return r, nil
}

// RouteToName is RouteToLabel under the identity naming.
func (s *FullTable) RouteToName(src, name int) (*core.Route, error) {
	return s.RouteToLabel(src, name)
}

// SingleTree routes along one global shortest-path tree.
type SingleTree struct {
	g      *graph.Graph
	scheme *treeroute.Scheme
	idBits int
}

var (
	_ core.LabeledScheme         = (*SingleTree)(nil)
	_ core.NameIndependentScheme = (*SingleTree)(nil)
)

// NewSingleTree compiles the scheme over the shortest-path tree rooted
// at root.
func NewSingleTree(g *graph.Graph, root int) (*SingleTree, error) {
	core.NoteSchemeBuild()
	spt := metric.Dijkstra(g, root)
	parent := make([]int, g.N())
	copy(parent, spt.Parent)
	parent[root] = -1
	sch, err := treeroute.New(parent, root)
	if err != nil {
		return nil, err
	}
	return &SingleTree{g: g, scheme: sch, idBits: bits.UintBits(g.N())}, nil
}

// SchemeName implements the scheme interfaces.
func (s *SingleTree) SchemeName() string { return "baseline/single-tree" }

// LabelOf returns v (each node keeps the tree labels of all n nodes
// indexed by id would defeat the point; instead the conversion from id
// to tree label happens at the source, which stores the mapping — we
// charge that to the source's table).
func (s *SingleTree) LabelOf(v int) int { return v }

// NameOf returns v (identity naming).
func (s *SingleTree) NameOf(v int) int { return v }

// TableBits charges each node its tree-routing table plus its own tree
// label (sources attach the destination's label via the id->label map
// counted below as n label entries shared across the network; per node
// that amortizes to one label).
func (s *SingleTree) TableBits(v int) int {
	return s.scheme.TableBits(v) + s.scheme.LabelBits(v)
}

// StretchBound is +Inf: the tree's distortion is unbounded in the worst
// case.
func (s *SingleTree) StretchBound() float64 { return math.Inf(1) }

// RouteToLabel routes along the tree, with treeroute.Route's budget of
// n+1 hops. The header is the destination's tree label, charged once
// whether or not the packet moves.
func (s *SingleTree) RouteToLabel(src, label int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("baseline: source %d out of range", src)
	}
	r, err := walk.Route[TreeHeader](s.g, s, src, label, s.g.N()+1, nil)
	if err != nil {
		return nil, err
	}
	r.MaxHeaderBits = s.scheme.LabelBits(label)
	return r, nil
}

// RouteToName is RouteToLabel under the identity naming.
func (s *SingleTree) RouteToName(src, name int) (*core.Route, error) {
	return s.RouteToLabel(src, name)
}

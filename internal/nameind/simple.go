package nameind

import (
	"fmt"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/par"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/walk"
)

// Simple is the Theorem 1.4 scheme (PODC 2006): (9+O(eps))-stretch
// name-independent routing whose storage carries a log(Delta) factor.
type Simple struct {
	*base
	// trees[i][k] is the search tree T(y, 2^i/eps) of y = Levels[i][k].
	trees [][]*searchtree.Tree[int]
}

var _ core.NameIndependentScheme = (*Simple)(nil)

// NewSimple compiles the scheme on top of the given underlying labeled
// scheme (which must have been built on the same graph; its hierarchy
// is shared). eps must be in (0, 1/3]: Lemma 3.4's stretch bound needs
// 1/eps > 2 with slack.
func NewSimple(g *graph.Graph, a metric.Distancer, nm *Naming, under Underlying, eps float64) (*Simple, error) {
	core.NoteSchemeBuild()
	if eps <= 0 || eps > 1.0/3 {
		return nil, fmt.Errorf("nameind: eps %v out of (0, 1/3]", eps)
	}
	b, err := newBase(g, a, nm, under, eps)
	if err != nil {
		return nil, err
	}
	s := &Simple{base: b}
	h := b.h
	s.trees = make([][]*searchtree.Tree[int], h.TopLevel()+1)
	type job struct{ i, k, y int }
	var jobs []job
	for i := 0; i <= h.TopLevel(); i++ {
		s.trees[i] = make([]*searchtree.Tree[int], len(h.Levels[i]))
		for k, y := range h.Levels[i] {
			jobs = append(jobs, job{i, k, y})
		}
	}
	// Tree construction only reads the oracle and hierarchy; build all
	// (level, net point) trees in parallel, then charge storage in the
	// serial job order so tblBits accumulates deterministically.
	trees, err := par.MapErr(len(jobs), func(t int) (*searchtree.Tree[int], error) {
		j := jobs[t]
		tr, err := b.buildSearchTree(j.y, h.Radius(j.i)/eps)
		if err != nil {
			return nil, fmt.Errorf("nameind: search tree (%d, %d): %w", j.i, j.y, err)
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	for t, tr := range trees {
		s.trees[jobs[t].i][jobs[t].k] = tr
		b.treeStorageBits(tr)
	}
	return s, nil
}

// SchemeName implements core.NameIndependentScheme.
func (s *Simple) SchemeName() string { return "nameind/simple" }

// SearchTrees returns every search tree of the scheme, level by level
// in net order (for tests and experiments).
func (s *Simple) SearchTrees() []*searchtree.Tree[int] {
	var out []*searchtree.Tree[int]
	for _, level := range s.trees {
		out = append(out, level...)
	}
	return out
}

// StretchBound returns the analytical worst-case stretch guarantee:
// Lemma 3.4's 1 + 8(1/eps+1)/(1/eps-2), inflated by the underlying
// labeled scheme's stretch on every physical leg.
func (s *Simple) StretchBound() float64 {
	e := s.eps
	underB := 1 + 4*e/(1-e)
	return underB * (1 + 8*(1+e)*(1/e+1)/(1/e-2))
}

// SimpleHopsPerNode is the hop budget of a Theorem 1.4 walk per node
// of the graph: RouteToName, Explain and the scheme registry's walker
// all allow SimpleHopsPerNode*n hops.
const SimpleHopsPerNode = 256

// RouteToName implements Algorithm 3 by walking the local Step function
// (walk.Route): climb the zooming sequence, searching the ball of each
// net ancestor until the destination's label is found, then route with
// the labeled scheme. MaxHeaderBits is the largest header the packet
// carries over an edge.
func (s *Simple) RouteToName(src, name int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("nameind: source %d out of range", src)
	}
	return walk.Route[NIHeader](s.g, s, src, name, SimpleHopsPerNode*s.g.N(), nil)
}

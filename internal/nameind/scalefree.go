package nameind

import (
	"fmt"
	"math"

	"compactrouting/internal/ballpack"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/par"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/walk"
)

// PackingProvider is the extra capability the scale-free scheme needs
// from its underlying labeled scheme: the shared ball packing (the
// labeled.ScaleFree scheme provides it).
type PackingProvider interface {
	Packing() *ballpack.Packing
}

// hlink is a stored H(u, i) delegation: the packing level and ball
// whose search tree indexes B_u(2^i/eps).
type hlink struct {
	j   int
	idx int
}

// ScaleFree is the Theorem 1.1 scheme (SODA 2007): (9+O(eps))-stretch
// name-independent routing with storage independent of the normalized
// diameter.
type ScaleFree struct {
	*base
	pk *ballpack.Packing
	// ballTrees[j][k] is the search tree of packing ball k at level j:
	// built on B_c(r_c(j)), indexing the names of B_c(r_c(j+2))
	// (Section 3.3, first family).
	ballTrees [][]*searchtree.Tree[int]
	// For y = Levels[i][k]: either ownTrees[i][k] != nil (the ball is
	// in the family 𝒜 and keeps its own tree), or hLinks[i][k] points
	// at the packing ball that subsumes it.
	ownTrees [][]*searchtree.Tree[int]
	hLinks   [][]hlink
	// ownCount / delegated for reports.
	ownCount, delegatedCount int
}

var _ core.NameIndependentScheme = (*ScaleFree)(nil)

// NewScaleFree compiles the Theorem 1.1 scheme. The underlying labeled
// scheme must also provide the shared ball packing (labeled.ScaleFree
// does). eps must be in (0, 1/4] (the underlying scheme's constraint).
func NewScaleFree(g *graph.Graph, a metric.Distancer, nm *Naming, under Underlying, eps float64) (*ScaleFree, error) {
	core.NoteSchemeBuild()
	if eps <= 0 || eps > 0.25 {
		return nil, fmt.Errorf("nameind: eps %v out of (0, 0.25]", eps)
	}
	pp, ok := under.(PackingProvider)
	if !ok {
		return nil, fmt.Errorf("nameind: underlying scheme %T does not share a ball packing", under)
	}
	b, err := newBase(g, a, nm, under, eps)
	if err != nil {
		return nil, err
	}
	s := &ScaleFree{base: b, pk: pp.Packing()}
	if err := s.buildBallTrees(); err != nil {
		return nil, err
	}
	if err := s.buildZoomTrees(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildBallTrees constructs the first search-tree family: one tree per
// packing ball B ∈ ℬ_j, built on B and indexing the (name, label)
// pairs of the size-2^{j+2} ball around its center, so each tree node
// stores about four pairs.
func (s *ScaleFree) buildBallTrees() error {
	s.ballTrees = make([][]*searchtree.Tree[int], s.pk.MaxJ()+1)
	type job struct{ j, k int }
	var jobs []job
	for j := 0; j <= s.pk.MaxJ(); j++ {
		s.ballTrees[j] = make([]*searchtree.Tree[int], len(s.pk.Balls[j]))
		for k := range s.pk.Balls[j] {
			jobs = append(jobs, job{j, k})
		}
	}
	// Construct every ball's tree in parallel (pure reads of the shared
	// oracle/packing), then charge storage serially in job order so the
	// shared tblBits accumulation is schedule-independent.
	trees, err := par.MapErr(len(jobs), func(t int) (*searchtree.Tree[int], error) {
		j, k := jobs[t].j, jobs[t].k
		ball := &s.pk.Balls[j][k]
		c := ball.Center
		tr, err := searchtree.New[int](s.a, c, ball.Radius, searchtree.Config{
			Eps:          s.eps,
			MinNetRadius: s.h.Base(),
		})
		if err != nil {
			return nil, fmt.Errorf("nameind: ball tree (j=%d, k=%d): %w", j, k, err)
		}
		indexed := s.a.Ball(c, s.a.RadiusOfSize(c, s.pk.Size(j+2)))
		tr.Store(s.pairsFor(indexed))
		return tr, nil
	})
	if err != nil {
		return err
	}
	for t, tr := range trees {
		s.ballTrees[jobs[t].j][jobs[t].k] = tr
		s.treeStorageBits(tr)
	}
	return nil
}

// buildZoomTrees decides, for every net point y ∈ Y_i, whether the
// zooming ball B_y(2^i/eps) keeps its own search tree (family 𝒜) or
// delegates through H(y, i) to a packing ball B with center c
// satisfying B ⊆ B_y(2^i(1/eps+1)) and B_y(2^i/eps) ⊆ B_c(r_c(j+2))
// (checked by the triangle-inequality conditions the paper's claims
// use), picking the minimal j, then the closest center.
func (s *ScaleFree) buildZoomTrees() error {
	h := s.h
	s.ownTrees = make([][]*searchtree.Tree[int], h.TopLevel()+1)
	s.hLinks = make([][]hlink, h.TopLevel()+1)
	type job struct{ i, k, y int }
	var jobs []job
	for i := 0; i <= h.TopLevel(); i++ {
		s.ownTrees[i] = make([]*searchtree.Tree[int], len(h.Levels[i]))
		s.hLinks[i] = make([]hlink, len(h.Levels[i]))
		for k, y := range h.Levels[i] {
			jobs = append(jobs, job{i, k, y})
		}
	}
	// The delegate-or-own decision (findH) and an own tree's
	// construction read only shared immutable state; resolve every
	// (level, net point) in parallel, then apply counters and storage
	// charges serially in job order.
	type zoom struct {
		hl   hlink
		tree *searchtree.Tree[int] // nil when delegated via hl
	}
	resolved, err := par.MapErr(len(jobs), func(t int) (zoom, error) {
		jb := jobs[t]
		outer := h.Radius(jb.i) * (1/s.eps + 1)
		inner := h.Radius(jb.i) / s.eps
		if j, idx, found := s.findH(jb.y, outer, inner); found {
			return zoom{hl: hlink{j: j, idx: idx}}, nil
		}
		tr, err := s.buildSearchTree(jb.y, inner)
		if err != nil {
			return zoom{}, fmt.Errorf("nameind: zoom tree (%d, %d): %w", jb.i, jb.y, err)
		}
		return zoom{tree: tr}, nil
	})
	if err != nil {
		return err
	}
	for t, z := range resolved {
		jb := jobs[t]
		if z.tree == nil {
			s.hLinks[jb.i][jb.k] = z.hl
			s.delegatedCount++
			// y stores the center's id and label plus the level j.
			s.tblBits[jb.y] += 2*s.idBits + bits.UvarintLen(uint64(z.hl.j))
			continue
		}
		s.ownTrees[jb.i][jb.k] = z.tree
		s.treeStorageBits(z.tree)
		s.ownCount++
	}
	return nil
}

// findH scans the packing for the minimal-level ball subsuming the
// zooming ball of radius inner around y, where the ball itself must fit
// in radius outer around y.
func (s *ScaleFree) findH(y int, outer, inner float64) (j, idx int, found bool) {
	for j = 0; j <= s.pk.MaxJ(); j++ {
		best, bestD := -1, math.Inf(1)
		for k := range s.pk.Balls[j] {
			bl := &s.pk.Balls[j][k]
			if bl.Radius > outer {
				break // balls are sorted by radius; none further fits
			}
			d := s.a.Dist(y, bl.Center)
			if d+bl.Radius > outer {
				continue // B ⊄ B_y(outer)
			}
			rNext2 := s.a.RadiusOfSize(bl.Center, s.pk.Size(j+2))
			if d+inner > rNext2 {
				continue // B_y(inner) ⊄ B_c(r_c(j+2))
			}
			//determinlint:allow floateq deliberate exact tie-break: equal distances come bit-identical from the same oracle matrix, and ties resolve by least center id
			if d < bestD || (d == bestD && bl.Center < s.pk.Balls[j][best].Center) {
				best, bestD = k, d
			}
		}
		if best >= 0 {
			return j, best, true
		}
	}
	return 0, 0, false
}

// SchemeName implements core.NameIndependentScheme.
func (s *ScaleFree) SchemeName() string { return "nameind/scale-free" }

// SearchTrees returns every search tree of the scheme: the packing
// balls' trees, then the zooming balls' own trees (for tests and
// experiments).
func (s *ScaleFree) SearchTrees() []*searchtree.Tree[int] {
	var out []*searchtree.Tree[int]
	for _, level := range s.ballTrees {
		out = append(out, level...)
	}
	for _, level := range s.ownTrees {
		for _, t := range level {
			if t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// OwnTreeCount returns how many zooming balls kept their own search
// tree (the family 𝒜).
func (s *ScaleFree) OwnTreeCount() int { return s.ownCount }

// DelegatedCount returns how many zooming balls delegate via H(u, i).
func (s *ScaleFree) DelegatedCount() int { return s.delegatedCount }

// StretchBound returns the analytical worst-case stretch guarantee,
// like Simple's but with the search leg inflated by the (1/eps+1)
// delegation radius.
func (s *ScaleFree) StretchBound() float64 {
	e := s.eps
	underB := 1 + 25*e // Lemma 4.7's 1+O(eps) with its working constant
	return underB * (1 + 16*(1+e)*(1/e+1)/(1/e-2))
}

// ScaleFreeHopsPerNode is the hop budget of a Theorem 1.1 walk per
// node of the graph, read by RouteToName, Explain and the scheme
// registry's walker.
const ScaleFreeHopsPerNode = 512

// RouteToName implements Algorithm 3 with the Search() of Algorithm 4
// by walking the local Step function (walk.Route). The route is marked
// Fallback when an underlying Theorem 1.2 walk took its safety net.
func (s *ScaleFree) RouteToName(src, name int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("nameind: source %d out of range", src)
	}
	return walk.Route[SFNIHeader](s.g, s, src, name, ScaleFreeHopsPerNode*s.g.N(),
		func(h SFNIHeader) bool { return h.Sub.Fallback })
}

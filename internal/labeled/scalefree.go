package labeled

import (
	"fmt"
	"math"

	"compactrouting/internal/ballpack"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/par"
	"compactrouting/internal/rnet"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/treeroute"
	"compactrouting/internal/walk"
)

// sfLevel is one stored level of R(u): the level index i, the packing
// level j(u, i) Algorithm 5 line 7 consults, and the ring entries.
type sfLevel struct {
	i       int
	j       int
	entries []ringEntry
}

// cell is the per-(j, ball) machinery of Theorem 1.2: the Voronoi cell
// V(c, j) of a packing-ball center, its shortest-path tree T_c(j) with
// a tree-routing scheme, and the Search Tree II T'(c, r_c(j)) mapping
// global labels of nodes in T_c(j) ∩ B_c(r_c(j+1)) to their local tree
// labels.
type cell struct {
	center int
	tree   *treeroute.PortScheme
	st     *searchtree.Tree[treeroute.PortLabel]
	rz     *searchtree.PathRealizer
}

// ScaleFree is the paper's Theorem 1.2 scheme: (1+O(eps)) stretch,
// ceil(log n)-bit labels, and per-node storage independent of the
// normalized diameter.
type ScaleFree struct {
	g   *graph.Graph
	a   metric.Distancer
	h   *rnet.Hierarchy
	nt  *rnet.NettingTree
	pk  *ballpack.Packing
	eps float64

	idBits int
	// levels[v] holds the rings for i ∈ R(v), ascending in i.
	levels [][]sfLevel
	// ownerBall[j][v] = index within pk.Balls[j] of the ball whose
	// Voronoi cell contains v.
	ownerBall [][]int32
	cells     [][]*cell
	tblBits   []int
}

var _ core.LabeledScheme = (*ScaleFree)(nil)

// NewScaleFree compiles the Theorem 1.2 scheme. eps must be in
// (0, 1/4]: the ring-hit guarantee at the eccentricity window of R(u)
// requires 1/eps >= 4 (routes that would escape it fall back to the
// top-level packing ball and are flagged, so delivery is total for any
// eps, but the analyzed path needs eps <= 1/4).
func NewScaleFree(g *graph.Graph, a metric.Distancer, eps float64) (*ScaleFree, error) {
	core.NoteSchemeBuild()
	if eps <= 0 || eps > 0.25 {
		return nil, fmt.Errorf("labeled: scale-free scheme needs eps in (0, 0.25], got %v", eps)
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("labeled: need at least 2 nodes, got %d", g.N())
	}
	s := &ScaleFree{
		g: g, a: a,
		h:      rnet.NewHierarchy(a, 0),
		nt:     nil,
		pk:     ballpack.New(a),
		eps:    eps,
		idBits: bits.UintBits(g.N()),
	}
	s.nt = rnet.NewNettingTree(s.h)
	if err := s.buildCells(); err != nil {
		return nil, err
	}
	s.buildRings()
	s.accountStorage()
	return s, nil
}

// buildCells constructs, for every packing level j, the Voronoi
// partition of the packing centers, the per-cell shortest-path trees
// with tree routing, and the Search Tree II per ball.
func (s *ScaleFree) buildCells() error {
	n := s.g.N()
	maxJ := s.pk.MaxJ()
	s.ownerBall = make([][]int32, maxJ+1)
	s.cells = make([][]*cell, maxJ+1)
	logn := int(math.Ceil(math.Log2(float64(n))))
	if logn < 1 {
		logn = 1
	}
	for j := 0; j <= maxJ; j++ {
		balls := s.pk.Balls[j]
		centers := make([]int, len(balls))
		for k := range balls {
			centers[k] = balls[k].Center
		}
		owner, _, parent := metric.Voronoi(s.g, centers)
		s.ownerBall[j] = make([]int32, n)
		for v := 0; v < n; v++ {
			s.ownerBall[j][v] = int32(owner[v])
		}
		// Every ball's cell machinery reads only the oracle and the
		// level's Voronoi partition, so the per-ball loop parallelizes
		// with ordered output (cells[j][k] is a pure function of (j, k)).
		cells, err := par.MapErr(len(balls), func(k int) (*cell, error) {
			c := balls[k].Center
			pa := make([]int, n)
			for v := range pa {
				if owner[v] == k {
					pa[v] = parent[v]
				} else {
					pa[v] = treeroute.NotInTree
				}
			}
			pa[c] = -1
			tree, err := treeroute.NewPortScheme(pa, c)
			if err != nil {
				return nil, fmt.Errorf("labeled: cell tree (j=%d, ball=%d): %w", j, k, err)
			}
			st, err := searchtree.New[treeroute.PortLabel](s.a, c, balls[k].Radius, searchtree.Config{
				Eps:          s.eps,
				MaxLevels:    logn,
				MinNetRadius: s.h.Base(),
			})
			if err != nil {
				return nil, fmt.Errorf("labeled: search tree (j=%d, ball=%d): %w", j, k, err)
			}
			// Pairs: global label -> local tree label, for cell members
			// within B_c(r_c(j+1)).
			rNext := s.a.RadiusOfSize(c, s.pk.Size(j+1))
			var pairs []searchtree.Pair[treeroute.PortLabel]
			for _, v := range s.a.Ball(c, rNext) {
				if owner[v] == k {
					pairs = append(pairs, searchtree.Pair[treeroute.PortLabel]{
						Key:  s.nt.Label(v),
						Data: tree.Label(v),
					})
				}
			}
			st.Store(pairs)
			rz, err := searchtree.NewRealizer(s.a, st, func(sites []int) ([]int, []int) {
				ow, _, pr := metric.Voronoi(s.g, sites)
				return ow, pr
			})
			if err != nil {
				return nil, fmt.Errorf("labeled: realizer (j=%d, ball=%d): %w", j, k, err)
			}
			return &cell{center: c, tree: tree, st: st, rz: rz}, nil
		})
		if err != nil {
			return err
		}
		s.cells[j] = cells
	}
	return nil
}

// buildRings computes R(v) and the ring entries for every node.
//
// R(v) = { i : exists j with (eps/6) r_v(j) <= Radius(i) <= r_v(j) }
// (Section 4.1), where r_v(j) is the radius of the ball of size
// min(2^j, n) around v. |R(v)| = O(log n * log(1/eps)) levels.
func (s *ScaleFree) buildRings() {
	n := s.g.N()
	L := s.h.TopLevel()
	maxJ := s.pk.MaxJ()
	s.levels = make([][]sfLevel, n)
	// Node v's stored levels depend only on the oracle and the shared
	// hierarchy/packing; iteration v writes levels[v] alone.
	par.For(n, func(v int) {
		var scratch []int // ball buffer reused across the node's levels
		rv := make([]float64, maxJ+1)
		for j := 0; j <= maxJ; j++ {
			rv[j] = s.a.RadiusOfSize(v, s.pk.Size(j))
		}
		inR := make([]bool, L+1)
		for j := 0; j <= maxJ; j++ {
			if rv[j] <= 0 {
				continue
			}
			// Levels i with (eps/6) r_v(j) <= base*2^i <= r_v(j).
			lo := int(math.Ceil(math.Log2(s.eps * rv[j] / 6 / s.h.Base())))
			hi := int(math.Floor(math.Log2(rv[j] / s.h.Base())))
			if lo < 0 {
				lo = 0
			}
			if hi > L {
				hi = L
			}
			for i := lo; i <= hi; i++ {
				inR[i] = true
			}
		}
		for i := 0; i <= L; i++ {
			if !inR[i] {
				continue
			}
			// j(v, i): the largest j with r_v(j) <= Radius(i).
			ji := 0
			for j := 0; j <= maxJ; j++ {
				if rv[j] <= s.h.Radius(i) {
					ji = j
				}
			}
			s.levels[v] = append(s.levels[v], sfLevel{
				i:       i,
				j:       ji,
				entries: s.ringEntriesAt(v, i, &scratch),
			})
		}
	})
}

// ringEntriesAt builds X_i(v) = B_v(Radius(i)/eps) ∩ Y_i with the far
// bit of Algorithm 5's line-3 test. scratch is a reusable ball buffer
// owned by the calling goroutine.
func (s *ScaleFree) ringEntriesAt(v, i int, scratch *[]int) []ringEntry {
	radius := s.h.Radius(i) / s.eps
	*scratch = s.a.AppendBall((*scratch)[:0], v, radius)
	var out []ringEntry
	for _, x := range *scratch {
		if !s.h.InLevel(x, i) {
			continue
		}
		rg, _ := s.nt.Range(x, i)
		next := s.a.NextHop(v, x)
		if next < 0 {
			next = v
		}
		out = append(out, ringEntry{
			x:    int32(x),
			lo:   int32(rg.Lo),
			hi:   int32(rg.Hi),
			next: int32(next),
			far:  checkFar(s.a.Dist(v, x), s.h.Radius(i), s.eps),
		})
	}
	return out
}

// accountStorage totals per-node table bits across every structure.
func (s *ScaleFree) accountStorage() {
	n := s.g.N()
	s.tblBits = make([]int, n)
	// The per-node pass reads only the (now immutable) cells and rings
	// and writes tblBits[v]; the cross-node search-tree residency pass
	// below stays serial because it scatters into arbitrary entries.
	par.For(n, func(v int) {
		b := s.idBits // own label
		for _, lv := range s.levels[v] {
			b += bits.UvarintLen(uint64(lv.i)) + bits.UvarintLen(uint64(lv.j))
			b += bits.UvarintLen(uint64(len(lv.entries)))
			b += len(lv.entries) * ringBits(s.idBits)
		}
		for j := range s.cells {
			cl := s.cells[j][s.ownerBall[j][v]]
			// Link to the cell center: the center's id and its local
			// tree label l(c; c, j).
			b += s.idBits + cl.tree.Label(cl.center).Bits()
			// v's own tree-routing table in T_c(j), with the port->link
			// map charged too (conservative: the port model normally
			// treats it as link-layer state).
			b += cl.tree.TableBits(v) + cl.tree.PortMapBits(v, s.idBits)
		}
		s.tblBits[v] = b
	})
	// Search-tree residency: structure bits live at the hosting nodes.
	for j := range s.cells {
		for _, cl := range s.cells[j] {
			for p := 0; p < cl.st.Len(); p++ {
				v := cl.st.Member(p)
				b := 3 * s.idBits // parent id + own subtree range
				b += cl.st.Degree(p) * 3 * s.idBits
				for _, pr := range cl.st.Pairs(p) {
					b += s.idBits + pr.Data.Bits()
				}
				b += cl.rz.StorageBits(v)
				s.tblBits[v] += b
			}
		}
	}
}

// SchemeName implements core.LabeledScheme.
func (s *ScaleFree) SchemeName() string { return "labeled/scale-free" }

// LabelOf returns v's ceil(log n)-bit label.
func (s *ScaleFree) LabelOf(v int) int { return s.nt.Label(v) }

// NodeOfLabel inverts LabelOf.
func (s *ScaleFree) NodeOfLabel(l int) int { return s.nt.NodeOfLabel(l) }

// TableBits returns v's total routing storage in bits.
func (s *ScaleFree) TableBits(v int) int { return s.tblBits[v] }

// Eps returns the stretch parameter.
func (s *ScaleFree) Eps() float64 { return s.eps }

// StretchBound returns the analytical stretch guarantee, Lemma 4.7's
// 1+O(eps) with its working constant (the same bound the package's
// all-pairs tests assert against).
func (s *ScaleFree) StretchBound() float64 { return 1 + 25*s.eps }

// Hierarchy exposes the shared net hierarchy.
func (s *ScaleFree) Hierarchy() *rnet.Hierarchy { return s.h }

// NettingTree exposes the shared netting tree.
func (s *ScaleFree) NettingTree() *rnet.NettingTree { return s.nt }

// Packing exposes the ball packing (used by the scale-free
// name-independent scheme, which shares it).
func (s *ScaleFree) Packing() *ballpack.Packing { return s.pk }

// minimalHitR returns the lowest-index stored level of u whose ring
// contains the label's ancestor (Algorithm 5 line 2).
func (s *ScaleFree) minimalHitR(u, label int) (*sfLevel, *ringEntry, bool) {
	for k := range s.levels[u] {
		lv := &s.levels[u][k]
		if e := findEntry(lv.entries, label); e != nil {
			return lv, e, true
		}
	}
	return nil, nil, false
}

// phaseAHeader is the header size during Algorithm 5's walking phase:
// destination label, previous level index, phase tag.
func (s *ScaleFree) phaseAHeader() int {
	return s.idBits + bits.UvarintLen(uint64(s.h.TopLevel()+1)) + 2
}

// RouteToLabel implements Algorithm 5 by walking the local Step
// function (walk.Route): every forwarding decision is a function of the
// current node's compiled state and the packet header. The route is
// marked Fallback when any header, the arrival step's included, took a
// safety net.
func (s *ScaleFree) RouteToLabel(src, label int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("labeled: source %d out of range", src)
	}
	return walk.Route[SFHeader](s.g, s, src, label, 16*s.g.N()*(s.h.TopLevel()+2),
		func(h SFHeader) bool { return h.Fallback })
}

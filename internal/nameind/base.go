package nameind

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/rnet"
	"compactrouting/internal/searchtree"
)

// Underlying is what the name-independent schemes need from their
// labeled substrate: routing to labels plus the shared net hierarchy
// and netting tree they were built from.
type Underlying interface {
	core.LabeledScheme
	Hierarchy() *rnet.Hierarchy
	NettingTree() *rnet.NettingTree
}

// base carries the state shared by Simple and ScaleFree: the graph,
// metric oracle, naming, underlying labeled scheme and the per-node
// storage accounting.
type base struct {
	g      *graph.Graph
	a      metric.Distancer
	nm     *Naming
	under  Underlying
	h      *rnet.Hierarchy
	eps    float64
	idBits int
	// nameBits is the fixed width of a name field (names may come from
	// a sparse identifier space larger than n).
	nameBits int
	// tblBits[v] accumulates v's total storage (underlying scheme
	// included).
	tblBits []int
}

func newBase(g *graph.Graph, a metric.Distancer, nm *Naming, under Underlying, eps float64) (*base, error) {
	if nm.N() != g.N() {
		return nil, fmt.Errorf("nameind: naming covers %d nodes, graph has %d", nm.N(), g.N())
	}
	b := &base{
		g: g, a: a, nm: nm, under: under,
		h:        under.Hierarchy(),
		eps:      eps,
		idBits:   bits.UintBits(g.N()),
		nameBits: bits.UintBits(nm.MaxName() + 1),
		tblBits:  make([]int, g.N()),
	}
	if b.nameBits < b.idBits {
		b.nameBits = b.idBits
	}
	for v := 0; v < g.N(); v++ {
		// Underlying labeled tables, plus the zooming-sequence parent
		// label (Section 3.1.2: one label per node).
		b.tblBits[v] = under.TableBits(v) + b.idBits
	}
	return b, nil
}

// treeStorageBits charges each hosting node of a search tree: its
// parent link (id + label for the virtual-edge endpoints), child
// references (id + range + label), its subtree range, and its stored
// pairs (name + label).
func (b *base) treeStorageBits(t *searchtree.Tree[int]) {
	for p := 0; p < t.Len(); p++ {
		cost := 2*b.idBits + 2*b.nameBits // parent id+label, own key range
		cost += t.Degree(p) * (2*b.idBits + 2*b.nameBits)
		cost += len(t.Pairs(p)) * (b.nameBits + b.idBits)
		b.tblBits[t.Member(p)] += cost
	}
}

// pairsFor builds the (name, label) pairs of a node set.
func (b *base) pairsFor(members []int) []searchtree.Pair[int] {
	pairs := make([]searchtree.Pair[int], len(members))
	for i, v := range members {
		pairs[i] = searchtree.Pair[int]{Key: b.nm.NameOf(v), Data: b.under.LabelOf(v)}
	}
	return pairs
}

// buildSearchTree builds a Definition 3.2 (uncapped) search tree on
// B_center(radius) holding the (name, label) pairs of its members. It
// only reads shared state, so tree constructions run in parallel; the
// caller charges storage afterwards with treeStorageBits in a serial,
// deterministically ordered pass (tblBits is shared across nodes).
func (b *base) buildSearchTree(center int, radius float64) (*searchtree.Tree[int], error) {
	t, err := searchtree.New[int](b.a, center, radius, searchtree.Config{
		Eps:          b.eps,
		MinNetRadius: b.h.Base(),
	})
	if err != nil {
		return nil, err
	}
	pairs := make([]searchtree.Pair[int], t.Len())
	for p := range pairs {
		v := t.Member(p)
		pairs[p] = searchtree.Pair[int]{Key: b.nm.NameOf(v), Data: b.under.LabelOf(v)}
	}
	t.Store(pairs)
	return t, nil
}

// NameOf implements core.NameIndependentScheme for both schemes.
func (b *base) NameOf(v int) int { return b.nm.NameOf(v) }

// TableBits implements core.NameIndependentScheme.
func (b *base) TableBits(v int) int { return b.tblBits[v] }

// Naming exposes the naming (for tests and experiments).
func (b *base) Naming() *Naming { return b.nm }

// UnderlyingScheme exposes the labeled substrate.
func (b *base) UnderlyingScheme() Underlying { return b.under }

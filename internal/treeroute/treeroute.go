// Package treeroute implements labeled routing on trees — the substrate
// Lemma 4.1 cites from Fraigniaud–Gavoille and Thorup–Zwick: given any
// weighted tree, a scheme that routes along the unique (hence optimal)
// tree path from any source to any destination given only the
// destination's label and the current node's local table.
//
// The implementation is the heavy-path scheme: nodes carry DFS
// intervals, each node's table records only its parent, its heavy child
// and the heavy child's interval, and a destination label lists the
// light edges on its root path. A root-to-node path crosses at most
// floor(log2 n) light edges, so labels are O(log² n) bits; the cited
// results shave a log log n factor with port bucketing, which does not
// change any of the paper's O(log³ n)-bit table budgets. Label and
// table sizes are measured exactly in the experiments.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package treeroute

import (
	"errors"
	"fmt"

	"compactrouting/internal/bits"
)

// NotInTree marks non-member entries of the parent array passed to New.
const NotInTree = -2

// LightEntry records one light edge on a destination's root path: at
// the node whose DFS-in number is ParentIn, forward to child node Child.
type LightEntry struct {
	ParentIn int32
	Child    int32
}

// Label routes to one destination. In is the destination's DFS-in
// number; Light lists the light edges of its root path in root-to-leaf
// order.
type Label struct {
	In    int32
	Light []LightEntry
}

// Bits returns the exact encoded size of the label: uvarint In,
// uvarint count, then per entry a gamma-coded ParentIn delta and a
// uvarint child id.
func (l Label) Bits() int {
	n := bits.UvarintLen(uint64(l.In)) + bits.UvarintLen(uint64(len(l.Light)))
	prev := int32(0)
	for _, e := range l.Light {
		n += bits.GammaLen(uint64(e.ParentIn-prev) + 1)
		n += bits.UvarintLen(uint64(e.Child))
		prev = e.ParentIn
	}
	return n
}

// Encode serializes the label.
func (l Label) Encode(w *bits.Writer) {
	w.WriteUvarint(uint64(l.In))
	w.WriteUvarint(uint64(len(l.Light)))
	prev := int32(0)
	for _, e := range l.Light {
		w.WriteGamma(uint64(e.ParentIn-prev) + 1)
		w.WriteUvarint(uint64(e.Child))
		prev = e.ParentIn
	}
}

// DecodeLabel reads a label written by Encode, rejecting ids and DFS
// numbers above MaxInt32 (Encode never writes one, so accepting it
// would map two streams to one label) and counts that exceed the
// stream.
func DecodeLabel(r *bits.Reader) (Label, error) {
	in, err := r.ReadUvarint()
	if err != nil {
		return Label{}, err
	}
	if in > maxInt32 {
		return Label{}, fmt.Errorf("treeroute: label In %d overflows int32", in)
	}
	cnt, err := r.ReadUvarint()
	if err != nil {
		return Label{}, err
	}
	// A light entry costs at least 9 bits (1-bit gamma delta + 1-group
	// uvarint child); bound the count before allocating so corrupt
	// streams cannot force large allocations.
	if cnt*9 > uint64(r.Remaining()) {
		return Label{}, fmt.Errorf("treeroute: light count %d exceeds stream", cnt)
	}
	l := Label{In: int32(in), Light: make([]LightEntry, cnt)}
	prev := int32(0)
	for i := range l.Light {
		d, err := r.ReadGamma()
		if err != nil {
			return Label{}, err
		}
		if d-1 > uint64(maxInt32-prev) {
			return Label{}, fmt.Errorf("treeroute: light edge parent In overflows int32")
		}
		prev += int32(d - 1)
		c, err := r.ReadUvarint()
		if err != nil {
			return Label{}, err
		}
		if c > maxInt32 {
			return Label{}, fmt.Errorf("treeroute: light child %d overflows int32", c)
		}
		l.Light[i] = LightEntry{ParentIn: prev, Child: int32(c)}
	}
	return l, nil
}

// nodeTable is the per-node routing state: the node's own DFS interval,
// its parent and heavy child (graph node ids; tree edges are physical
// edges), and the heavy child's interval.
type nodeTable struct {
	in, out           int32
	parent            int32 // -1 at root
	heavy             int32 // -1 at leaves
	heavyIn, heavyOut int32
}

// Scheme is a compiled tree-routing scheme over a subset of graph
// nodes. Tree edges must be physical graph edges for the routes to be
// realizable hop-by-hop (shortest-path trees satisfy this).
type Scheme struct {
	root   int
	member map[int]*nodeTable
	labels map[int]Label
	size   int
}

// ChildOrder selects which child each node treats as "heavy" (the one
// whose interval lives in the parent's table; all others ride in the
// destination labels as light entries).
type ChildOrder int

const (
	// HeavyFirst picks the largest subtree — the choice that bounds
	// light entries per label by floor(log2 n).
	HeavyFirst ChildOrder = iota
	// IDOrder picks the smallest-id child regardless of size: the
	// ablation baseline, whose labels can grow to Theta(depth) entries.
	IDOrder
)

// New compiles the scheme with the heavy-path child order. parent is
// indexed by graph node id: parent[v] is v's tree parent, -1 for the
// root, NotInTree for nodes outside the tree.
func New(parent []int, root int) (*Scheme, error) {
	return NewOrdered(parent, root, HeavyFirst)
}

// NewOrdered compiles the scheme with an explicit child order (see
// ChildOrder; IDOrder exists for the ablation experiments).
func NewOrdered(parent []int, root int, order ChildOrder) (*Scheme, error) {
	if root < 0 || root >= len(parent) || parent[root] != -1 {
		return nil, fmt.Errorf("treeroute: root %d invalid", root)
	}
	children := make(map[int][]int)
	size := 0
	for v, p := range parent {
		if p == NotInTree {
			continue
		}
		size++
		if p >= 0 {
			children[p] = append(children[p], v)
		} else if v != root {
			return nil, fmt.Errorf("treeroute: second root %d", v)
		}
	}
	// Subtree sizes via reverse topological order (post-order DFS).
	sub := make(map[int]int, size)
	topo := make([]int, 0, size)
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		topo = append(topo, v)
		stack = append(stack, children[v]...)
	}
	if len(topo) != size {
		return nil, errors.New("treeroute: parent array contains a cycle or unreachable nodes")
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := 1
		for _, c := range children[v] {
			s += sub[c]
		}
		sub[v] = s
	}
	// DFS-in/out with the heavy child visited first; light children in
	// decreasing subtree size (ties by id) for determinism.
	s := &Scheme{
		root:   root,
		member: make(map[int]*nodeTable, size),
		labels: make(map[int]Label, size),
		size:   size,
	}
	before := func(a, b int) bool {
		if order == IDOrder {
			return a < b
		}
		if sub[a] != sub[b] {
			return sub[a] > sub[b]
		}
		return a < b
	}
	// Iterate members in DFS order rather than ranging the children map:
	// topo covers every node with children, and the fixed order keeps the
	// compile deterministic run to run.
	for _, v := range topo {
		cs := children[v]
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && before(cs[j], cs[j-1]); j-- {
				cs[j-1], cs[j] = cs[j], cs[j-1]
			}
		}
	}
	next := int32(0)
	var dfs func(v int, light []LightEntry)
	dfs = func(v int, light []LightEntry) {
		tbl := &nodeTable{in: next, parent: int32(parent[v]), heavy: -1}
		if parent[v] == -1 {
			tbl.parent = -1
		}
		next++
		s.member[v] = tbl
		lbl := Label{In: tbl.in, Light: make([]LightEntry, len(light))}
		copy(lbl.Light, light)
		s.labels[v] = lbl
		cs := children[v]
		for i, c := range cs {
			if i == 0 {
				tbl.heavy = int32(c)
				dfs(c, light)
				hc := s.member[c]
				tbl.heavyIn, tbl.heavyOut = hc.in, hc.out
			} else {
				// Copy: siblings must not share the slice's backing array.
				ext := make([]LightEntry, len(light)+1)
				copy(ext, light)
				ext[len(light)] = LightEntry{ParentIn: tbl.in, Child: int32(c)}
				dfs(c, ext)
			}
		}
		tbl.out = next - 1
	}
	dfs(root, nil)
	return s, nil
}

// Size returns the number of tree members.
func (s *Scheme) Size() int { return s.size }

// Root returns the root node id.
func (s *Scheme) Root() int { return s.root }

// Contains reports whether graph node v is in the tree.
func (s *Scheme) Contains(v int) bool {
	_, ok := s.member[v]
	return ok
}

// Label returns v's routing label. v must be a member.
func (s *Scheme) Label(v int) Label { return s.labels[v] }

// LabelBits returns the encoded size of v's label in bits.
func (s *Scheme) LabelBits(v int) int { return s.labels[v].Bits() }

// TableBits returns the encoded size of v's routing table: the DFS
// interval, parent id, heavy child id and interval, all uvarint-coded
// (-1 sentinels shifted by one).
func (s *Scheme) TableBits(v int) int {
	t := s.member[v]
	n := bits.UvarintLen(uint64(t.in)) + bits.UvarintLen(uint64(t.out))
	n += bits.UvarintLen(uint64(t.parent + 1))
	n += bits.UvarintLen(uint64(t.heavy + 1))
	if t.heavy >= 0 {
		n += bits.UvarintLen(uint64(t.heavyIn)) + bits.UvarintLen(uint64(t.heavyOut))
	}
	return n
}

// ErrNotInTree is returned when routing is attempted from a node that
// is not a tree member.
var ErrNotInTree = errors.New("treeroute: node not in tree")

// ErrBadLabel is returned when a label does not lead to a destination,
// e.g. it belongs to a different tree.
var ErrBadLabel = errors.New("treeroute: label does not resolve at this node")

// NextHop performs one local routing step at node u toward the
// destination labeled dst. It returns the neighbor to forward to, or
// arrived == true when u is the destination. The decision reads only
// u's table and the label — the distributed-model contract.
func (s *Scheme) NextHop(u int, dst Label) (next int, arrived bool, err error) {
	t, ok := s.member[u]
	if !ok {
		return 0, false, ErrNotInTree
	}
	switch {
	case dst.In == t.in:
		return 0, true, nil
	case dst.In < t.in || dst.In > t.out:
		// Destination outside u's subtree: climb.
		if t.parent < 0 {
			return 0, false, ErrBadLabel
		}
		return int(t.parent), false, nil
	case t.heavy >= 0 && dst.In >= t.heavyIn && dst.In <= t.heavyOut:
		return int(t.heavy), false, nil
	default:
		// Destination is under a light child: its label records which.
		for _, e := range dst.Light {
			if e.ParentIn == t.in {
				return int(e.Child), false, nil
			}
		}
		return 0, false, ErrBadLabel
	}
}

// Route walks from src to the node labeled dst and returns the full
// node path (src first). It errors if the walk does not terminate
// within Size() steps.
func (s *Scheme) Route(src int, dst Label) ([]int, error) {
	path := []int{src}
	cur := src
	for steps := 0; ; steps++ {
		next, arrived, err := s.NextHop(cur, dst)
		if err != nil {
			return nil, err
		}
		if arrived {
			return path, nil
		}
		if steps > s.size {
			return nil, errors.New("treeroute: routing loop")
		}
		cur = next
		path = append(path, cur)
	}
}

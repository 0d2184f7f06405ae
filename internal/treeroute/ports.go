package treeroute

import (
	"errors"
	"fmt"
	"sort"

	"compactrouting/internal/bits"
)

// PortScheme is tree routing in the designer-port model, with
// O(log n)-bit labels — the direction of the Fraigniaud–Gavoille /
// Thorup–Zwick refinements Lemma 4.1 cites.
//
// Each node orders its children by decreasing subtree size: child 0 is
// heavy, light children get ports 1, 2, .... A destination's label is
// its DFS-in number plus the sequence of light-edge PORTS on its root
// path, gamma-coded. Because the light child at port p has at most a
// 1/(p+1) fraction of its parent's subtree, the port products telescope
// and the whole port list costs at most ~2 log2 n bits.
//
// The trick that removes the per-entry position fields of the basic
// Scheme: every node stores its light-depth (the number of light edges
// on its own root path). When the packet is descending, the current
// node lies on the destination's root path, so ITS light-depth indexes
// exactly the next port to take.
//
// In the port model a node's mapping from port numbers to link
// endpoints is link-layer state, not routing table content; PortMapBits
// reports what it would cost anyway.
type PortScheme struct {
	root   int
	member map[int]*portTable
	labels map[int]PortLabel
	size   int
}

// portTable is the per-node state: DFS interval, parent, heavy child
// and its interval, the node's light-depth, and the port->child map
// (charged separately).
type portTable struct {
	in, out           int32
	parent            int32
	heavy             int32
	heavyIn, heavyOut int32
	lightDepth        int32
	// children in port order: children[0] == heavy, children[p] is the
	// light child with port p.
	children []int32
}

// PortLabel addresses one destination: its DFS-in number and the light
// ports of its root path in top-down order.
type PortLabel struct {
	In    int32
	Ports []int32
}

// Bits returns the label's encoded size: uvarint In, uvarint port
// count, then gamma-coded ports (whose sum telescopes to O(log n):
// the port-p child holds at most a 1/(p+1) fraction of its parent's
// subtree, so the product of ports is at most n).
func (l PortLabel) Bits() int {
	n := bits.UvarintLen(uint64(l.In)) + bits.UvarintLen(uint64(len(l.Ports)))
	for _, p := range l.Ports {
		n += bits.GammaLen(uint64(p))
	}
	return n
}

// Encode serializes the label: uvarint In, uvarint port count, then
// the gamma-coded ports (ports are >= 1 by construction).
func (l PortLabel) Encode(w *bits.Writer) {
	w.WriteUvarint(uint64(l.In))
	w.WriteUvarint(uint64(len(l.Ports)))
	for _, p := range l.Ports {
		w.WriteGamma(uint64(p))
	}
}

// DecodePortLabel reads a label written by Encode, rejecting port
// values outside [1, MaxInt32] and counts that exceed the stream.
func DecodePortLabel(r *bits.Reader) (PortLabel, error) {
	in, err := r.ReadUvarint()
	if err != nil {
		return PortLabel{}, err
	}
	if in > maxInt32 {
		return PortLabel{}, fmt.Errorf("treeroute: label In %d overflows int32", in)
	}
	cnt, err := r.ReadUvarint()
	if err != nil {
		return PortLabel{}, err
	}
	// A port costs at least 1 bit (gamma of 1); bound the count before
	// allocating so corrupt streams cannot force large allocations.
	if cnt > uint64(r.Remaining()) {
		return PortLabel{}, fmt.Errorf("treeroute: port count %d exceeds stream", cnt)
	}
	l := PortLabel{In: int32(in), Ports: make([]int32, cnt)}
	for i := range l.Ports {
		p, err := r.ReadGamma()
		if err != nil {
			return PortLabel{}, err
		}
		if p > maxInt32 {
			return PortLabel{}, fmt.Errorf("treeroute: port %d overflows int32", p)
		}
		l.Ports[i] = int32(p)
	}
	return l, nil
}

// maxInt32 bounds decoded ids without importing math.
const maxInt32 = 1<<31 - 1

// NewPortScheme compiles the port-model scheme over the same trees New
// accepts.
func NewPortScheme(parent []int, root int) (*PortScheme, error) {
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
	// Iterate members in DFS order rather than ranging the children map:
	// topo covers every node with children, and the fixed order keeps the
	// compile deterministic run to run.
	for _, v := range topo {
		cs := children[v]
		sort.Slice(cs, func(i, j int) bool {
			if sub[cs[i]] != sub[cs[j]] {
				return sub[cs[i]] > sub[cs[j]]
			}
			return cs[i] < cs[j]
		})
	}
	s := &PortScheme{
		root:   root,
		member: make(map[int]*portTable, size),
		labels: make(map[int]PortLabel, size),
		size:   size,
	}
	next := int32(0)
	var dfs func(v int, ports []int32, lightDepth int32)
	dfs = func(v int, ports []int32, lightDepth int32) {
		tbl := &portTable{in: next, parent: int32(parent[v]), heavy: -1, lightDepth: lightDepth}
		next++
		s.member[v] = tbl
		lbl := PortLabel{In: tbl.in, Ports: make([]int32, len(ports))}
		copy(lbl.Ports, ports)
		s.labels[v] = lbl
		cs := children[v]
		tbl.children = make([]int32, len(cs))
		for i, c := range cs {
			tbl.children[i] = int32(c)
			if i == 0 {
				tbl.heavy = int32(c)
				dfs(c, ports, lightDepth)
				hc := s.member[c]
				tbl.heavyIn, tbl.heavyOut = hc.in, hc.out
			} else {
				ext := make([]int32, len(ports)+1)
				copy(ext, ports)
				ext[len(ports)] = int32(i) // port number = rank among children
				dfs(c, ext, lightDepth+1)
			}
		}
		tbl.out = next - 1
	}
	dfs(root, nil, 0)
	return s, nil
}

// Size returns the number of tree members.
func (s *PortScheme) Size() int { return s.size }

// Contains reports membership.
func (s *PortScheme) Contains(v int) bool {
	_, ok := s.member[v]
	return ok
}

// Label returns v's port label.
func (s *PortScheme) Label(v int) PortLabel { return s.labels[v] }

// LabelBits returns the encoded label size of v.
func (s *PortScheme) LabelBits(v int) int { return s.labels[v].Bits() }

// TableBits returns the routing-table size: interval, parent, heavy
// child + interval, light-depth. Port->link resolution is link-layer
// state in this model (see PortMapBits).
func (s *PortScheme) TableBits(v int) int {
	t := s.member[v]
	n := bits.UvarintLen(uint64(t.in)) + bits.UvarintLen(uint64(t.out))
	n += bits.UvarintLen(uint64(t.parent + 1))
	n += bits.UvarintLen(uint64(t.heavy + 1))
	if t.heavy >= 0 {
		n += bits.UvarintLen(uint64(t.heavyIn)) + bits.UvarintLen(uint64(t.heavyOut))
	}
	n += bits.UvarintLen(uint64(t.lightDepth))
	return n
}

// PortMapBits returns what v's port->neighbor map would cost if it
// were charged to the routing table (one id per child).
func (s *PortScheme) PortMapBits(v int, idBits int) int {
	return len(s.member[v].children) * idBits
}

// NextHop performs one local step at u toward the destination labeled
// dst.
func (s *PortScheme) NextHop(u int, dst PortLabel) (next int, arrived bool, err error) {
	t, ok := s.member[u]
	if !ok {
		return 0, false, ErrNotInTree
	}
	switch {
	case dst.In == t.in:
		return 0, true, nil
	case dst.In < t.in || dst.In > t.out:
		if t.parent < 0 {
			return 0, false, ErrBadLabel
		}
		return int(t.parent), false, nil
	case t.heavy >= 0 && dst.In >= t.heavyIn && dst.In <= t.heavyOut:
		return int(t.heavy), false, nil
	default:
		// u is on the destination's root path, so u's light-depth
		// indexes the port to take next.
		k := int(t.lightDepth)
		if k >= len(dst.Ports) {
			return 0, false, ErrBadLabel
		}
		p := int(dst.Ports[k])
		if p < 1 || p >= len(t.children) {
			return 0, false, ErrBadLabel
		}
		return int(t.children[p]), false, nil
	}
}

package labeled

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/walk"
)

// TableEntry is one ring record of a Simple table in its wire order:
// the net point X, the netting-tree range [Lo, Hi] of (X, level), the
// next hop toward X, and the far flag. It exists so constructors
// outside this package — the distributed builder in internal/dist —
// can emit tables through EncodeSimpleTable.
type TableEntry struct {
	X, Lo, Hi, Next int32
	Far             bool
}

// EncodeSimpleTable serializes one node's Simple table from raw ring
// levels (levels[i] lists the level-i entries in ascending X). Layout:
// uvarint level count, the node's own label (idBits wide), then per
// level a uvarint entry count and fixed-width entries (x, lo, hi, next
// as idBits fields, plus the far flag). (*Simple).EncodeTable delegates
// here, so a table built in-network from the same rings is
// byte-identical to the oracle's.
func EncodeSimpleTable(idBits int, selfLabel int32, levels [][]TableEntry) ([]byte, int) {
	var w bits.Writer
	w.WriteUvarint(uint64(len(levels)))
	w.WriteBits(uint64(selfLabel), idBits)
	for _, ring := range levels {
		w.WriteUvarint(uint64(len(ring)))
		for _, e := range ring {
			w.WriteBits(uint64(e.X), idBits)
			w.WriteBits(uint64(e.Lo), idBits)
			w.WriteBits(uint64(e.Hi), idBits)
			w.WriteBits(uint64(e.Next), idBits)
			w.WriteBit(e.Far)
		}
	}
	return w.Bytes(), w.Len()
}

// EncodeTable serializes node v's routing table. The encoded length in
// bits is exactly TableBits(v) — the number the experiments report —
// so the space claims are backed by a real byte layout, not an
// estimate. See EncodeSimpleTable for the layout.
func (s *Simple) EncodeTable(v int) ([]byte, int) {
	levels := make([][]TableEntry, len(s.rings[v]))
	for i, ring := range s.rings[v] {
		lv := make([]TableEntry, len(ring))
		for k, e := range ring {
			lv[k] = TableEntry{X: e.x, Lo: e.lo, Hi: e.hi, Next: e.next, Far: e.far}
		}
		levels[i] = lv
	}
	return EncodeSimpleTable(s.idBits, int32(s.nt.Label(v)), levels)
}

// DecodedSimple is a simple-labeled-scheme router reconstructed purely
// from encoded per-node tables: it shares nothing with the compiling
// scheme except the physical graph. Routing through it and through the
// original must produce identical paths — the round-trip test that
// keeps the codec and the table accounting honest.
type DecodedSimple struct {
	g         *graph.Graph
	idBits    int
	selfLabel []int32
	rings     [][][]ringEntry
}

// DecodeSimple parses the tables produced by EncodeTable for all n
// nodes (tables[v] with sizes[v] valid bits) with the snapshot
// restore's parser, and refuses two tables claiming one label.
func DecodeSimple(g *graph.Graph, tables [][]byte, sizes []int) (*DecodedSimple, error) {
	n := g.N()
	if len(tables) != n || len(sizes) != n {
		return nil, fmt.Errorf("labeled: got %d tables for %d nodes", len(tables), n)
	}
	d := &DecodedSimple{
		g:         g,
		idBits:    bits.UintBits(n),
		selfLabel: make([]int32, n),
		rings:     make([][][]ringEntry, n),
	}
	labelSeen := make([]bool, n)
	for v := 0; v < n; v++ {
		self, rings, err := parseSimpleTable(tables[v], sizes[v], d.idBits, n)
		if err != nil {
			return nil, fmt.Errorf("labeled: table %d: %w", v, err)
		}
		if labelSeen[self] {
			return nil, fmt.Errorf("labeled: table %d: label %d duplicated", v, self)
		}
		labelSeen[self] = true
		d.selfLabel[v], d.rings[v] = self, rings
	}
	return d, nil
}

// Step performs one forwarding decision from decoded state only.
func (d *DecodedSimple) Step(w int, h SimpleHeader) (int, SimpleHeader, bool, error) {
	label := int(h.Label)
	if int(d.selfLabel[w]) == label {
		return 0, h, true, nil
	}
	if h.Target < 0 || int(h.Target) == w {
		acquired := false
		for i, ring := range d.rings[w] {
			if e := findEntry(ring, label); e != nil {
				if int(e.x) == w {
					return 0, h, false, fmt.Errorf("labeled: decoded self target at %d level %d", w, i)
				}
				h.Target, h.Level = e.x, int32(i)
				acquired = true
				break
			}
		}
		if !acquired {
			return 0, h, false, fmt.Errorf("labeled: decoded node %d has no ring hit for label %d", w, label)
		}
	}
	e := findEntry(d.rings[w][h.Level], label)
	if e == nil || e.x != h.Target {
		return 0, h, false, fmt.Errorf("labeled: decoded relay %d lost target %d", w, h.Target)
	}
	return int(e.next), h, false, nil
}

// PrepareHeader returns the initial header for a delivery to label.
func (d *DecodedSimple) PrepareHeader(label int) (SimpleHeader, error) {
	if label < 0 || label >= d.g.N() {
		return SimpleHeader{}, fmt.Errorf("labeled: label %d out of range", label)
	}
	return SimpleHeader{Label: int32(label), Target: -1}, nil
}

// RouteToLabel delivers a packet using decoded tables only.
func (d *DecodedSimple) RouteToLabel(src, label int) (*core.Route, error) {
	return walk.Route[SimpleHeader](d.g, d, src, label, 8*d.g.N()*len(d.rings[src]), nil)
}

package labeled

import (
	"fmt"
	"math"

	"compactrouting/internal/ballpack"
	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/rnet"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/treeroute"
)

// Snapshot codecs for the labeled schemes (internal/snapshot embeds
// these blobs per served scheme). The serialized state is the election
// output — hierarchy levels, packing, per-node encoded tables, cell
// trees — so a restore is a linear decode plus cheap derived lookups
// (netting tree, positions), never a constructor re-run: the scheme
// constructors are counted by core.NoteSchemeBuild and the snapshot
// cold-start test pins that a restore leaves the counter untouched.

// EncodeSnapshot serializes the Simple scheme: parameters, the
// hierarchy election, and every node's wire table (the same blobs
// EncodeTable emits, embedded verbatim so save→load→save is
// byte-identical).
func (s *Simple) EncodeSnapshot(w *bits.Writer) {
	w.WriteBits(math.Float64bits(s.eps), 64)
	w.WriteBits(math.Float64bits(s.ringFactor), 64)
	rnet.EncodeHierarchy(w, s.h)
	for v := 0; v < s.g.N(); v++ {
		tbl, nbit := s.EncodeTable(v)
		w.WriteBlob(tbl, nbit)
	}
}

// RestoreSimple rebuilds a Simple scheme from an EncodeSnapshot stream
// without re-running the constructor: the hierarchy is decoded, the
// netting tree re-derived, and each node's rings parsed back from its
// wire table. Table bit accounting is the blob length, exactly as the
// constructor computes it.
func RestoreSimple(r *bits.Reader, g *graph.Graph, a metric.Distancer) (*Simple, error) {
	eb, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	fb, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	eps, factor := math.Float64frombits(eb), math.Float64frombits(fb)
	if !(eps > 0 && eps <= 0.5) {
		return nil, fmt.Errorf("labeled: restored eps %v out of (0, 0.5]", eps)
	}
	if !(factor >= 1) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("labeled: restored ring factor %v below 1", factor)
	}
	h, err := rnet.DecodeHierarchy(r, a)
	if err != nil {
		return nil, err
	}
	nt := rnet.NewNettingTree(h)
	n := g.N()
	s := &Simple{
		g: g, a: a, h: h, nt: nt, eps: eps,
		ringFactor: factor,
		name:       "labeled/simple",
		rings:      make([][][]ringEntry, n),
		tblBit:     make([]int, n),
		idBits:     bits.UintBits(n),
	}
	for v := 0; v < n; v++ {
		tbl, nbit, err := r.ReadBlob()
		if err != nil {
			return nil, fmt.Errorf("labeled: table %d: %w", v, err)
		}
		self, rings, err := parseSimpleTable(tbl, nbit, s.idBits, n)
		if err != nil {
			return nil, fmt.Errorf("labeled: table %d: %w", v, err)
		}
		if int(self) != nt.Label(v) {
			return nil, fmt.Errorf("labeled: table %d self label %d != netting-tree label %d", v, self, nt.Label(v))
		}
		if len(rings) != h.TopLevel()+1 {
			return nil, fmt.Errorf("labeled: table %d has %d levels, hierarchy has %d", v, len(rings), h.TopLevel()+1)
		}
		if err := checkRings(rings, nt, n); err != nil {
			return nil, fmt.Errorf("labeled: table %d: %w", v, err)
		}
		s.rings[v] = rings
		s.tblBit[v] = nbit
	}
	return s, nil
}

// parseSimpleTable parses one EncodeTable blob back into ring levels.
func parseSimpleTable(tbl []byte, nbit, idBits, n int) (int32, [][]ringEntry, error) {
	r := bits.NewReader(tbl, nbit)
	levels, err := r.ReadUvarint()
	if err != nil {
		return 0, nil, err
	}
	if levels > uint64(nbit) {
		return 0, nil, fmt.Errorf("level count %d exceeds stream", levels)
	}
	self, err := r.ReadBits(idBits)
	if err != nil {
		return 0, nil, err
	}
	if self >= uint64(n) {
		return 0, nil, fmt.Errorf("self label %d out of range", self)
	}
	rings := make([][]ringEntry, levels)
	for l := range rings {
		count, err := r.ReadUvarint()
		if err != nil {
			return 0, nil, err
		}
		if count*uint64(ringBits(idBits)) > uint64(r.Remaining()) {
			return 0, nil, fmt.Errorf("level %d entry count %d exceeds stream", l, count)
		}
		ring := make([]ringEntry, count)
		for k := range ring {
			var e ringEntry
			for _, dst := range []*int32{&e.x, &e.lo, &e.hi, &e.next} {
				f, err := r.ReadBits(idBits)
				if err != nil {
					return 0, nil, err
				}
				*dst = int32(f)
			}
			far, err := r.ReadBit()
			if err != nil {
				return 0, nil, err
			}
			e.far = far
			ring[k] = e
		}
		rings[l] = ring
	}
	if r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("%d trailing bits", r.Remaining())
	}
	return int32(self), rings, nil
}

// checkRings refuses restored rings that break the invariants the
// relay step's binary search rests on: within a level, net points are
// strictly ascending, and each entry's range is the netting-tree range
// Range(x, i) of its net point. Distinct net points of one level have
// disjoint netting-tree ranges, so the target's entry is then the only
// entry whose range can hold the label, and findTarget agrees with
// findEntry.
func checkRings(rings [][]ringEntry, nt *rnet.NettingTree, n int) error {
	for i, ring := range rings {
		for k, e := range ring {
			if int(e.x) >= n {
				return fmt.Errorf("level %d entry %d: net point %d out of range", i, k, e.x)
			}
			if k > 0 && e.x <= ring[k-1].x {
				return fmt.Errorf("level %d entry %d: net point %d not above %d", i, k, e.x, ring[k-1].x)
			}
			if rg, ok := nt.Range(int(e.x), i); !ok || rg.Lo != int(e.lo) || rg.Hi != int(e.hi) {
				return fmt.Errorf("level %d entry %d: range [%d, %d] is not the netting-tree range of net point %d", i, k, e.lo, e.hi, e.x)
			}
		}
	}
	return nil
}

// EncodeSnapshot serializes the ScaleFree scheme: parameters, the
// hierarchy and packing elections, the stored ring levels R(v), the
// Voronoi ownership, every cell's port tree / search tree / realizer,
// and the storage accounting verbatim.
func (s *ScaleFree) EncodeSnapshot(w *bits.Writer) {
	n := s.g.N()
	w.WriteBits(math.Float64bits(s.eps), 64)
	rnet.EncodeHierarchy(w, s.h)
	s.pk.Encode(w)
	for v := 0; v < n; v++ {
		w.WriteUvarint(uint64(len(s.levels[v])))
		for _, lv := range s.levels[v] {
			w.WriteUvarint(uint64(lv.i))
			w.WriteUvarint(uint64(lv.j))
			w.WriteUvarint(uint64(len(lv.entries)))
			for _, e := range lv.entries {
				w.WriteUvarint(uint64(e.x))
				w.WriteUvarint(uint64(e.lo))
				w.WriteUvarint(uint64(e.hi))
				w.WriteUvarint(uint64(e.next))
				w.WriteBit(e.far)
			}
		}
	}
	for j := range s.ownerBall {
		for v := 0; v < n; v++ {
			w.WriteUvarint(uint64(s.ownerBall[j][v]))
		}
	}
	for j := range s.cells {
		for _, cl := range s.cells[j] {
			w.WriteUvarint(uint64(cl.center))
			treeroute.EncodePortScheme(w, cl.tree, n)
			searchtree.EncodeTree(w, cl.st, func(w *bits.Writer, l treeroute.PortLabel) { l.Encode(w) })
			searchtree.EncodeRealizer(w, cl.rz, n)
		}
	}
	for v := 0; v < n; v++ {
		w.WriteUvarint(uint64(s.tblBits[v]))
	}
}

// RestoreScaleFree rebuilds a ScaleFree scheme from an EncodeSnapshot
// stream: hierarchy, packing, rings and cells are decoded, the netting
// tree is re-derived, and the storage accounting is taken verbatim.
func RestoreScaleFree(r *bits.Reader, g *graph.Graph, a metric.Distancer) (*ScaleFree, error) {
	n := g.N()
	eb, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	eps := math.Float64frombits(eb)
	if !(eps > 0 && eps <= 0.25) {
		return nil, fmt.Errorf("labeled: restored eps %v out of (0, 0.25]", eps)
	}
	h, err := rnet.DecodeHierarchy(r, a)
	if err != nil {
		return nil, err
	}
	pk, err := ballpack.Decode(r, a)
	if err != nil {
		return nil, err
	}
	s := &ScaleFree{
		g: g, a: a, h: h,
		nt:     rnet.NewNettingTree(h),
		pk:     pk,
		eps:    eps,
		idBits: bits.UintBits(n),
	}
	s.levels = make([][]sfLevel, n)
	for v := 0; v < n; v++ {
		cnt, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(h.TopLevel()+1) {
			return nil, fmt.Errorf("labeled: node %d stores %d levels", v, cnt)
		}
		lvs := make([]sfLevel, cnt)
		for li := range lvs {
			iv, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			jv, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if iv > uint64(h.TopLevel()) || jv > uint64(pk.MaxJ()) {
				return nil, fmt.Errorf("labeled: node %d level (%d,%d) out of range", v, iv, jv)
			}
			ec, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if ec*33 > uint64(r.Remaining()) {
				return nil, fmt.Errorf("labeled: node %d ring count %d exceeds stream", v, ec)
			}
			entries := make([]ringEntry, ec)
			for k := range entries {
				var e ringEntry
				for _, dst := range []*int32{&e.x, &e.lo, &e.hi, &e.next} {
					f, err := r.ReadUvarint()
					if err != nil {
						return nil, err
					}
					if f >= uint64(n) {
						return nil, fmt.Errorf("labeled: node %d ring id out of range", v)
					}
					*dst = int32(f)
				}
				far, err := r.ReadBit()
				if err != nil {
					return nil, err
				}
				e.far = far
				entries[k] = e
			}
			lvs[li] = sfLevel{i: int(iv), j: int(jv), entries: entries}
		}
		s.levels[v] = lvs
	}
	maxJ := pk.MaxJ()
	s.ownerBall = make([][]int32, maxJ+1)
	for j := 0; j <= maxJ; j++ {
		s.ownerBall[j] = make([]int32, n)
		for v := 0; v < n; v++ {
			o, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if o >= uint64(len(pk.Balls[j])) {
				return nil, fmt.Errorf("labeled: owner ball (%d,%d) out of range", j, v)
			}
			s.ownerBall[j][v] = int32(o)
		}
	}
	s.cells = make([][]*cell, maxJ+1)
	for j := 0; j <= maxJ; j++ {
		s.cells[j] = make([]*cell, len(pk.Balls[j]))
		for k := range s.cells[j] {
			cv, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if cv >= uint64(n) {
				return nil, fmt.Errorf("labeled: cell (%d,%d) center out of range", j, k)
			}
			tree, err := treeroute.DecodePortScheme(r, n)
			if err != nil {
				return nil, fmt.Errorf("labeled: cell (%d,%d) tree: %w", j, k, err)
			}
			st, err := searchtree.DecodeTree(r, n, func(r *bits.Reader) (treeroute.PortLabel, error) {
				return treeroute.DecodePortLabel(r)
			})
			if err != nil {
				return nil, fmt.Errorf("labeled: cell (%d,%d) search tree: %w", j, k, err)
			}
			rz, err := searchtree.DecodeRealizer(r, a, st)
			if err != nil {
				return nil, fmt.Errorf("labeled: cell (%d,%d) realizer: %w", j, k, err)
			}
			s.cells[j][k] = &cell{center: int(cv), tree: tree, st: st, rz: rz}
		}
	}
	s.tblBits = make([]int, n)
	for v := 0; v < n; v++ {
		b, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		s.tblBits[v] = int(b)
	}
	return s, nil
}

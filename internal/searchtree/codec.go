package searchtree

import (
	"fmt"
	"math"

	"compactrouting/internal/bits"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
)

// Search-tree bit codecs for the snapshot plane. Encoding walks the
// member positions (ascending ids) and each node's children in stored
// order — never a map — so the stream is a deterministic function of
// the tree and save→load→save is byte-identical. A child reference
// repeats the child's own record (edge weight, key range, emptiness):
// the encoder writes it from that record, and the decoder rejects a
// stream in which the two disagree.

// EncodeTree serializes t into w; encData writes one stored datum.
func EncodeTree[D any](w *bits.Writer, t *Tree[D], encData func(*bits.Writer, D)) {
	w.WriteUvarint(uint64(t.Center))
	w.WriteBits(math.Float64bits(t.Radius), 64)
	w.WriteBits(math.Float64bits(t.Eps), 64)
	w.WriteBits(math.Float64bits(t.TailEdgeW), 64)
	writeIDs(w, t.members)
	w.WriteUvarint(uint64(t.NumLevels()))
	for l := 0; l < t.NumLevels(); l++ {
		writeIDs(w, t.Level(l))
	}
	w.WriteUvarint(uint64(len(t.tailSite)))
	for i := 0; i < len(t.tailSite); i++ {
		w.WriteUvarint(uint64(int(t.tailSite[i])))
		writeIDs(w, t.Tail(i))
	}
	writeRange := func(nd node) {
		w.WriteUvarint(uint64(nd.lo))
		w.WriteUvarint(uint64(nd.hi))
		w.WriteBit(nd.empty)
	}
	for p := range t.members {
		if pp := t.Parent(p); pp < 0 {
			w.WriteUvarint(0)
		} else {
			w.WriteUvarint(uint64(t.Member(pp) + 1))
		}
		w.WriteBits(math.Float64bits(t.node[p].edgeW), 64)
		w.WriteUvarint(uint64(t.level[p] + 1))
		w.WriteUvarint(uint64(t.Degree(p)))
		for _, c := range t.kids[t.kidOff[p]:t.kidOff[p+1]] {
			w.WriteUvarint(uint64(t.members[c]))
			w.WriteBits(math.Float64bits(t.node[c].edgeW), 64)
			writeRange(t.node[c])
		}
		pairs := t.Pairs(p)
		w.WriteUvarint(uint64(len(pairs)))
		for _, pr := range pairs {
			w.WriteUvarint(uint64(pr.Key))
			encData(w, pr.Data)
		}
		writeRange(t.node[p])
	}
}

// writeIDs writes a uvarint count, then the ids.
func writeIDs(w *bits.Writer, ids []int32) {
	w.WriteUvarint(uint64(len(ids)))
	for _, v := range ids {
		w.WriteUvarint(uint64(v))
	}
}

// decoder reads fields off r and keeps the first error; after it,
// every read yields zero, so a corrupt stream ends the decode after
// bounded work.
type decoder struct {
	r   *bits.Reader
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("searchtree: "+format, args...)
	}
}

// uint reads a uvarint that must be at most max. ReadUvarint refuses
// non-canonical encodings, so every field re-encodes to the bits it
// came from.
func (d *decoder) uint(max int, what string) int {
	if d.err != nil {
		return 0
	}
	v, err := d.r.ReadUvarint()
	switch {
	case err != nil:
		d.err = err
	case v > uint64(max):
		d.fail("%s %d exceeds %d", what, v, max)
	default:
		return int(v)
	}
	return 0
}

// raw reads n bits as they stand.
func (d *decoder) raw(n int) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := d.r.ReadBits(n)
	d.err = err
	return v
}

// ids appends a counted list of at most max node ids, each below n.
func (d *decoder) ids(dst []int32, n, max int) []int32 {
	for k := d.uint(max, "list length"); k > 0; k-- {
		dst = append(dst, int32(d.uint(n-1, "node id")))
	}
	return dst
}

// DecodeTree reads a tree written by EncodeTree over an n-node graph;
// decData reads one stored datum. It fills the flat layout directly,
// in a constant number of allocations besides decData's own. The
// structure is verified, so a corrupt stream yields an error, never a
// panic or a non-terminating Search: members ascend, every listed id,
// parent and child is a member, the level and tail lists hold at most
// one id per member, and checkShape passes.
func DecodeTree[D any](r *bits.Reader, n int, decData func(*bits.Reader) (D, error)) (*Tree[D], error) {
	if n < 1 {
		return nil, fmt.Errorf("searchtree: decoding over %d nodes", n)
	}
	d := &decoder{r: r}
	t := &Tree[D]{Center: d.uint(n-1, "center")}
	for _, f := range []*float64{&t.Radius, &t.Eps, &t.TailEdgeW} {
		if *f = math.Float64frombits(d.raw(64)); math.IsNaN(*f) || *f < 0 {
			d.fail("parameter %v invalid", *f)
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	// The members, then the level and tail lists, go to scratch until
	// the total length is known.
	ids := d.ids(sc.ids[:0], n, n)
	m := len(ids)
	for i := 1; i < m; i++ {
		if ids[i] <= ids[i-1] {
			d.fail("members not ascending at %d", ids[i])
		}
	}
	levelOff, tailSite, tailLen := append(sc.levelOff[:0], 0), sc.tailSite[:0], sc.tailLen[:0]
	for l := d.uint(m+1, "level count"); l > 0; l-- {
		ids = d.ids(ids, n, 2*m-len(ids))
		levelOff = append(levelOff, len(ids)-m)
	}
	for i := d.uint(m, "tail count"); i > 0; i-- {
		tailSite = append(tailSite, d.uint(n-1, "tail site"))
		before := len(ids)
		ids = d.ids(ids, n, 2*m-len(ids))
		tailLen = append(tailLen, len(ids)-before)
	}
	sc.ids, sc.levelOff, sc.tailSite, sc.tailLen = ids, levelOff, tailSite, tailLen
	if m == 0 {
		d.fail("tree has no members")
	}
	if d.err != nil {
		return nil, d.err
	}
	t.alloc(m, len(ids)-m, len(levelOff)-1, len(tailSite))
	copy(t.members, ids)
	copy(t.layers, ids[m:])
	t.setRanges(levelOff, tailSite, tailLen)
	sc.index(t.members, n)
	defer sc.unindex(t.members)
	for _, v := range t.layers {
		if sc.at[v] == 0 {
			d.fail("listed node %d not a member", v)
		}
	}

	kid := grow(sc.kid, m-1)
	var pairs []Pair[D]
	for p := 0; p < m && d.err == nil; p++ {
		t.parent[p] = -1
		if up := d.uint(n, "parent") - 1; up >= 0 {
			if t.parent[p] = sc.at[up] - 1; t.parent[p] < 0 {
				d.fail("parent %d not a member", up)
			}
		}
		t.node[p].edgeW = math.Float64frombits(d.raw(64))
		t.level[p] = int32(d.uint(m+1, "level")) - 1
		t.kidOff[p] = int32(len(kid))
		for k := d.uint(m-1-len(kid), "child count"); k > 0; k-- {
			id := d.uint(n-1, "child")
			c := sc.at[id] - 1
			if c < 0 || len(kid) > int(t.kidOff[p]) && c <= t.kids[len(kid)-1] {
				d.fail("child %d of %d not a member in ascending order", id, ids[p])
			}
			t.kids[len(kid)] = c
			kid = append(kid, node{math.Float64frombits(d.raw(64)), d.uint(math.MaxInt, "key"), d.uint(math.MaxInt, "key"), d.raw(1) == 1})
		}
		// A pair costs at least 8 bits (a one-group uvarint key), which
		// bounds the count before anything is allocated. The first
		// node's count sizes the pair slice: Store hands every node the
		// same quota, give or take one.
		bound := d.r.Remaining() / 8
		pc := d.uint(bound, "pair count")
		if pairs == nil {
			pairs = make([]Pair[D], 0, min(max(pc, 1), bound/m)*m)
		}
		t.pairLo[p] = int32(len(pairs))
		for ; pc > 0 && d.err == nil; pc-- {
			pr := Pair[D]{Key: d.uint(math.MaxInt, "key")}
			if d.err == nil {
				pr.Data, d.err = decData(d.r)
			}
			pairs = append(pairs, pr)
		}
		t.pairHi[p] = int32(len(pairs))
		t.node[p].lo, t.node[p].hi, t.node[p].empty = d.uint(math.MaxInt, "key"), d.uint(math.MaxInt, "key"), d.raw(1) == 1
	}
	sc.kid = kid
	t.kidOff[m] = int32(len(kid))
	if len(kid) != m-1 {
		d.fail("%d child edges for %d members", len(kid), m)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(pairs) < cap(pairs) {
		pairs = append([]Pair[D](nil), pairs...)
	}
	t.pairs = pairs
	if err := t.checkShape(kid); err != nil {
		return nil, err
	}
	return t, nil
}

// checkShape verifies a decoded tree's structure: the center is a
// member without a parent, and every child names its lister as parent
// and carries a reference equal to its own record. Children ascend
// within each list, so no node has two in-edges and none leads back
// to the center: the nodes reachable from it form a tree, and they
// must be all members, so Search terminates.
func (t *Tree[D]) checkShape(kid []node) error {
	root := t.Pos(t.Center)
	if root < 0 || t.parent[root] != -1 {
		return fmt.Errorf("searchtree: center %d is no parentless member", t.Center)
	}
	t.root = int32(root)
	for p := range t.members {
		for j := t.kidOff[p]; j < t.kidOff[p+1]; j++ {
			c := int(t.kids[j])
			if int(t.parent[c]) != p {
				return fmt.Errorf("searchtree: child %d of %d names another parent", t.members[c], t.members[p])
			}
			if k, own := kid[j], t.node[c]; k.lo != own.lo || k.hi != own.hi || k.empty != own.empty ||
				math.Float64bits(k.edgeW) != math.Float64bits(own.edgeW) {
				return fmt.Errorf("searchtree: reference to child %d differs from its record", t.members[c])
			}
		}
	}
	if reached := t.subtreeSize(root); reached != len(t.members) {
		return fmt.Errorf("searchtree: only %d of %d members reachable from center", reached, len(t.members))
	}
	return nil
}

// subtreeSize counts the nodes reachable from p through child lists.
func (t *Tree[D]) subtreeSize(p int) int {
	size := 1
	for _, c := range t.kids[t.kidOff[p]:t.kidOff[p+1]] {
		size += t.subtreeSize(int(c))
	}
	return size
}

// EncodeRealizer serializes r into w: one tree-routing scheme per tail
// site, in the tree's tail order, then the storage of every node (the
// map is only probed by key). The oracle is not serialized — the
// decoder rebinds to one.
func EncodeRealizer(w *bits.Writer, r *PathRealizer, n int) {
	for _, sch := range r.tailScheme {
		treeroute.EncodeScheme(w, sch, n)
	}
	for v := 0; v < n; v++ {
		w.WriteUvarint(uint64(r.storage[v]))
	}
}

// DecodeRealizer reads a realizer written by EncodeRealizer, rebinding
// it to the oracle and re-deriving the tail-site index from the
// companion tree.
func DecodeRealizer[D any](r *bits.Reader, a metric.Distancer, t *Tree[D]) (*PathRealizer, error) {
	n := a.N()
	rz := newRealizer(a, t)
	for i := range rz.tailScheme {
		sch, err := treeroute.DecodeScheme(r, n)
		if err != nil {
			return nil, fmt.Errorf("searchtree: tail scheme at site %d: %w", int(t.tailSite[i]), err)
		}
		rz.tailScheme[i] = sch
	}
	for v := 0; v < n; v++ {
		b, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if b > 0 {
			rz.storage[v] = int(b)
		}
	}
	return rz, nil
}

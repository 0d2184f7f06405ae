package labeled

import (
	"bytes"
	"slices"
	"testing"

	"compactrouting/internal/bits"
)

// TestSnapshotRoundTripSimple pins the Simple snapshot codec:
// EncodeSnapshot → RestoreSimple → EncodeSnapshot must reproduce the
// stream bit for bit (the save→load→save byte-identity the snapshot
// plane depends on).
func TestSnapshotRoundTripSimple(t *testing.T) {
	f := geoFixture(t, 80, 41)
	s, err := NewSimple(f.g, f.a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var w bits.Writer
	s.EncodeSnapshot(&w)
	r := bits.NewReader(w.Bytes(), w.Len())
	s2, err := RestoreSimple(r, f.g, f.a)
	if err != nil {
		t.Fatal(err)
	}
	var w2 bits.Writer
	s2.EncodeSnapshot(&w2)
	if w2.Len() != w.Len() || !bytes.Equal(w2.Bytes(), w.Bytes()) {
		t.Fatalf("re-encode differs: %d bits vs %d", w2.Len(), w.Len())
	}
}

// TestSnapshotRoundTripScaleFree is the same pin for the scale-free
// scheme's snapshot codec.
func TestSnapshotRoundTripScaleFree(t *testing.T) {
	f := geoFixture(t, 80, 42)
	s, err := NewScaleFree(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var w bits.Writer
	s.EncodeSnapshot(&w)
	r := bits.NewReader(w.Bytes(), w.Len())
	s2, err := RestoreScaleFree(r, f.g, f.a)
	if err != nil {
		t.Fatal(err)
	}
	var w2 bits.Writer
	s2.EncodeSnapshot(&w2)
	if w2.Len() != w.Len() || !bytes.Equal(w2.Bytes(), w.Bytes()) {
		t.Fatalf("re-encode differs: %d bits vs %d", w2.Len(), w.Len())
	}
}

// TestRestoreSimpleRefusesDisorderedRing pins the ring invariants the
// relay step's binary search rests on: a restored level whose net
// points are not strictly ascending, or whose ranges are not the
// netting tree's (so may overlap), is refused.
func TestRestoreSimpleRefusesDisorderedRing(t *testing.T) {
	f := geoFixture(t, 80, 41)
	s, err := NewSimple(f.g, f.a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// restore snapshots s with node v's level i passed through edit.
	restore := func(v, i int, edit func([]ringEntry)) error {
		ts := *s
		ts.rings = slices.Clone(s.rings)
		ts.rings[v] = slices.Clone(s.rings[v])
		ts.rings[v][i] = slices.Clone(s.rings[v][i])
		edit(ts.rings[v][i])
		var w bits.Writer
		ts.EncodeSnapshot(&w)
		_, err := RestoreSimple(bits.NewReader(w.Bytes(), w.Len()), f.g, f.a)
		return err
	}
	checked := 0
	for v := 0; v < f.g.N() && checked < 5; v++ {
		for i, ring := range s.rings[v] {
			if len(ring) < 2 {
				continue
			}
			if err := restore(v, i, func([]ringEntry) {}); err != nil {
				t.Fatalf("node %d: untouched rings refused: %v", v, err)
			}
			edits := []struct {
				name string
				edit func(es []ringEntry)
			}{
				{"swapped net points", func(es []ringEntry) { es[0], es[1] = es[1], es[0] }},
				{"repeated net point", func(es []ringEntry) { es[1] = es[0] }},
				{"overlapping ranges", func(es []ringEntry) { es[0].hi = es[1].hi; es[0].lo = min(es[0].lo, es[1].lo) }},
				{"net point past n", func(es []ringEntry) { es[len(es)-1].x = int32(f.g.N()) }},
				{"range off the tree", func(es []ringEntry) { es[0].hi++ }},
			}
			for _, e := range edits {
				if err := restore(v, i, e.edit); err == nil {
					t.Fatalf("node %d level %d: %s accepted", v, i, e.name)
				}
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Fatal("no ring level with two entries to tamper with")
	}
}

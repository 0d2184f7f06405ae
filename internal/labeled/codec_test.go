package labeled

import (
	"testing"

	"compactrouting/internal/core"
)

func TestEncodeTableMatchesTableBits(t *testing.T) {
	f := geoFixture(t, 100, 31)
	s, err := NewSimple(f.g, f.a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < f.g.N(); v++ {
		_, n := s.EncodeTable(v)
		if n != s.TableBits(v) {
			t.Fatalf("node %d: encoded %d bits, TableBits says %d", v, n, s.TableBits(v))
		}
	}
}

func TestDecodedSchemeRoutesIdentically(t *testing.T) {
	f := geoFixture(t, 90, 32)
	s, err := NewSimple(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]byte, f.g.N())
	sizes := make([]int, f.g.N())
	for v := range tables {
		tables[v], sizes[v] = s.EncodeTable(v)
	}
	d, err := DecodeSimple(f.g, tables, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.SamplePairs(f.g.N(), 400, 5) {
		orig, err := s.RouteToLabel(p[0], s.LabelOf(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := d.RouteToLabel(p[0], s.LabelOf(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(orig.Path) != len(dec.Path) {
			t.Fatalf("pair %v: path lengths differ (%d vs %d)", p, len(orig.Path), len(dec.Path))
		}
		for k := range orig.Path {
			if orig.Path[k] != dec.Path[k] {
				t.Fatalf("pair %v: paths diverge at hop %d", p, k)
			}
		}
	}
}

func TestDecodeSimpleRejectsCorruption(t *testing.T) {
	f := geoFixture(t, 40, 33)
	s, err := NewSimple(f.g, f.a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]byte, f.g.N())
	sizes := make([]int, f.g.N())
	for v := range tables {
		tables[v], sizes[v] = s.EncodeTable(v)
	}
	// Wrong table count.
	if _, err := DecodeSimple(f.g, tables[:10], sizes[:10]); err == nil {
		t.Fatal("short table set accepted")
	}
	// Truncated table.
	badSizes := make([]int, len(sizes))
	copy(badSizes, sizes)
	badSizes[0] = sizes[0] / 2
	if _, err := DecodeSimple(f.g, tables, badSizes); err == nil {
		t.Fatal("truncated table accepted")
	}
	// Duplicate self label: copy node 1's table over node 0's.
	dup := make([][]byte, len(tables))
	copy(dup, tables)
	dup[0] = tables[1]
	dupSizes := make([]int, len(sizes))
	copy(dupSizes, sizes)
	dupSizes[0] = sizes[1]
	if _, err := DecodeSimple(f.g, dup, dupSizes); err == nil {
		t.Fatal("duplicate self label accepted")
	}
}

func TestRelayStepRefusesLabelOutsideTarget(t *testing.T) {
	// A header whose target's range does not hold the label cannot be
	// relayed: the compiled step (binary search by target) and the
	// decoded step (linear scan by label) both refuse it.
	f := geoFixture(t, 90, 32)
	s, err := NewSimple(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]byte, f.g.N())
	sizes := make([]int, f.g.N())
	for v := range tables {
		tables[v], sizes[v] = s.EncodeTable(v)
	}
	d, err := DecodeSimple(f.g, tables, sizes)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for w := 0; w < f.g.N(); w++ {
		for i, ring := range s.rings[w] {
			if len(ring) < 2 || int(ring[0].x) == w || s.nt.Label(w) == int(ring[1].lo) {
				continue
			}
			h := SimpleHeader{Label: ring[1].lo, Target: ring[0].x, Level: int32(i)}
			if _, _, _, err := s.Step(w, h); err == nil {
				t.Fatalf("node %d level %d: relayed label %d toward %d, whose range is [%d, %d]", w, i, h.Label, h.Target, ring[0].lo, ring[0].hi)
			}
			if _, _, _, err := d.Step(w, h); err == nil {
				t.Fatalf("node %d level %d: decoded step relayed label %d toward %d", w, i, h.Label, h.Target)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relay to check")
	}
}

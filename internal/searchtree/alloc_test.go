package searchtree

import (
	"testing"

	"compactrouting/internal/bits"
)

// TestDecodeTreeAllocsFlat pins DecodeTree at a constant number of
// allocations whatever the member count: the tree, its int32 block,
// its node records and its pair slice, plus the test's own reader
// (stored data is a plain int, so decData allocates nothing). The map
// layout it replaced made several allocations per member.
func TestDecodeTreeAllocsFlat(t *testing.T) {
	_, a := geo(t, 200, 14)
	decodeAllocs := func(radius float64, each int) (int, float64) {
		tr := buildTree(t, a, 0, radius, 0)
		pairs := make([]Pair[int], each*tr.Len())
		for i := range pairs {
			pairs[i] = Pair[int]{Key: i, Data: i}
		}
		tr.Store(pairs)
		var w bits.Writer
		EncodeTree(&w, tr, encodeInt)
		buf, nbit := w.Bytes(), w.Len()
		return tr.Len(), testing.AllocsPerRun(20, func() {
			if _, err := DecodeTree(bits.NewReader(buf, nbit), a.N(), decodeInt); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, each := range []int{1, 3} {
		ms, small := decodeAllocs(a.Diameter()/6, each)
		ml, large := decodeAllocs(a.Diameter(), each)
		if 4*ms > ml {
			t.Fatalf("fixture trees too close in size: %d and %d members", ms, ml)
		}
		if small != large || large > 5 {
			t.Fatalf("%d pairs per member: DecodeTree makes %v allocations at %d members, %v at %d; want the same count, at most 5",
				each, small, ms, large, ml)
		}
	}
}

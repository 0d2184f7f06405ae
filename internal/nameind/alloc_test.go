package nameind

import (
	"testing"

	"compactrouting/internal/labeled"
)

// TestNewSimpleAllocs pins the build cost of the flat search-tree
// layout. On dense geometric n=512 at eps 0.25 (2,501 search trees,
// 43,126 members) NewSimple made 121,550 allocations when each tree was
// a map of per-node objects with their own child and pair slices; a
// tree now costs four (the tree, its int32 block, its node records and
// its pairs), 10,038 in all. The gate holds the build to a tenth of the
// map layout's count.
func TestNewSimpleAllocs(t *testing.T) {
	const mapLayoutAllocs = 121550
	f := geoFixture(t, 512, 1)
	under, err := labeled.NewSimple(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := RandomNaming(512, 1)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewSimple(f.g, f.a, nm, under, 0.25); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > mapLayoutAllocs/10 {
		t.Fatalf("NewSimple makes %v allocations, want at most %d (a tenth of the map layout's %d)", allocs, mapLayoutAllocs/10, mapLayoutAllocs)
	}
}

package exp

import (
	"bytes"
	"fmt"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/snapshot"
)

// TestSchemeBytesBackendEquivalence is the scheme half of the
// dense/lazy equivalence contract (the query half lives in
// internal/metric's TestDenseLazyEquivalence): all four paper schemes,
// built over the same graph on the dense and the lazy backend, must
// serialize byte-identically through the snapshot codecs. Byte
// equality of the encoded tables subsumes every structural property —
// centers, ring sets, tree parents, name assignments — so one compare
// pins the whole construction.
func TestSchemeBytesBackendEquivalence(t *testing.T) {
	const eps = 0.25
	for fi, fam := range []string{"grid-holes", "geometric", "power-law", "random-tree"} {
		for si, n := range []int{16, 33, 64} {
			seed := int64(1 + fi*3 + si) // distinct seed per cell
			t.Run(fmt.Sprintf("%s/n%d/seed%d", fam, n, seed), func(t *testing.T) {
				t.Parallel()
				g := equivGraph(t, fam, n, seed)
				dense := metric.NewAPSP(g)
				// Undersized cache so table construction spans evictions.
				lazy := metric.NewLazyOracleOpts(g, metric.LazyOpts{MaxEntries: 4 * g.N()})
				db := schemeBytes(t, g, dense, seed, eps)
				lb := schemeBytes(t, g, lazy, seed, eps)
				for _, name := range []string{"simple-labeled", "scale-free-labeled", "name-independent", "scale-free-name-independent"} {
					if !bytes.Equal(db[name], lb[name]) {
						t.Errorf("%s: encoded tables differ between backends (%d vs %d bytes)",
							name, len(db[name]), len(lb[name]))
					}
				}
			})
		}
	}
}

// schemeBytes builds all four schemes on the given backend and returns
// each one's snapshot-codec serialization.
func schemeBytes(t *testing.T, g *graph.Graph, a metric.Distancer, seed int64, eps float64) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	encode := func(name string, impl any) {
		w := &bits.Writer{}
		if err := snapshot.EncodeScheme(w, name, impl); err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		out[name] = append([]byte(nil), w.Bytes()...)
	}
	simple, err := labeled.NewSimple(g, a, eps)
	if err != nil {
		t.Fatalf("simple-labeled: %v", err)
	}
	encode("simple-labeled", simple)
	sf, err := labeled.NewScaleFree(g, a, eps)
	if err != nil {
		t.Fatalf("scale-free-labeled: %v", err)
	}
	encode("scale-free-labeled", sf)
	nm := nameind.RandomNaming(g.N(), seed+2)
	ni, err := nameind.NewSimple(g, a, nm, simple, eps)
	if err != nil {
		t.Fatalf("name-independent: %v", err)
	}
	encode("name-independent", ni)
	sfni, err := nameind.NewScaleFree(g, a, nm, sf, eps)
	if err != nil {
		t.Fatalf("scale-free-name-independent: %v", err)
	}
	encode("scale-free-name-independent", sfni)
	return out
}

// equivGraph builds the named row of the graph-family table.
func equivGraph(t *testing.T, fam string, n int, seed int64) *graph.Graph {
	t.Helper()
	f, err := graph.LookupFamily(fam)
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Make(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

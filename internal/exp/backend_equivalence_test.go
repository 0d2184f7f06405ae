package exp

import (
	"bytes"
	"fmt"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/schemes"
)

// TestSchemeBytesBackendEquivalence is the registry's determinism gate:
// every entry's tables must be a pure function of the graph, ε and the
// naming seed. Each entry is built over the matrix {GOMAXPROCS 1, 8} ×
// {dense, lazy with an evicting cache} × {built, restored from its
// snapshot blob}, and every cell must give the same bytes: the blob and
// the per-node TableBits. Byte equality of the blob subsumes every
// structural property — centers, ring sets, tree parents, name
// assignments — so one compare pins the whole construction. The query
// half of the dense/lazy contract lives in internal/metric's
// TestDenseLazyEquivalence.
func TestSchemeBytesBackendEquivalence(t *testing.T) {
	type graphCase struct {
		name       string
		g          *graph.Graph
		namingSeed int64
	}
	var cases []graphCase
	for fi, fam := range []string{"grid-holes", "geometric", "power-law", "random-tree"} {
		for si, n := range []int{16, 33, 64} {
			seed := int64(1 + fi*3 + si) // distinct seed per cell
			cases = append(cases, graphCase{fmt.Sprintf("%s/n%d/seed%d", fam, n, seed), equivGraph(t, fam, n, seed), seed + 2})
		}
	}
	// The sparser geometric graph the scheme packages' parallel-build
	// tests ran on, with their naming seed.
	geo, _, err := graph.RandomGeometric(96, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, graphCase{"geometric-r0.2/n96/seed7", geo, 3})

	const eps = 0.25
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dense := metric.NewAPSP(c.g)
			for _, e := range schemes.All() {
				t.Run(e.Name(), func(t *testing.T) {
					var want []byte
					for _, backend := range []string{"dense", "lazy"} {
						got := gate.Same(t, func() []byte {
							var a metric.Distancer = dense
							if backend == "lazy" {
								// Undersized cache so table construction spans evictions.
								a = metric.NewLazyOracleOpts(c.g, metric.LazyOpts{MaxEntries: 4 * c.g.N()})
							}
							return registryBytes(t, e, c.g, a, eps, c.namingSeed)
						})
						if want == nil {
							want = got
						} else if !bytes.Equal(got, want) {
							t.Errorf("%s tables differ from dense: %s", backend, gate.Diff(want, got))
						}
					}
				})
			}
		})
	}
}

// registryBytes builds e over a and returns its snapshot blob and
// per-node TableBits, failing unless the scheme restored from that
// blob gives the same bytes. The only extra is nameind.ScaleFree's
// own/delegated tree counts, which its blob does not write.
func registryBytes(t *testing.T, e schemes.Entry, g *graph.Graph, a metric.Distancer, eps float64, namingSeed int64) []byte {
	t.Helper()
	encode := func(inst *schemes.Instance) *bits.Writer {
		w := &bits.Writer{}
		if err := e.EncodeSnapshot(w, inst.Impl); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return w
	}
	summary := func(inst *schemes.Instance, blob *bits.Writer) []byte {
		out := append(fmt.Appendf(nil, "blob %d bits ", blob.Len()), blob.Bytes()...)
		out = append(out, "\ntable bits"...)
		for v := 0; v < g.N(); v++ {
			out = fmt.Appendf(out, " %d", inst.TableBits(v))
		}
		if sf, ok := inst.Impl.(*nameind.ScaleFree); ok {
			out = fmt.Appendf(out, "\nown trees %d delegated %d", sf.OwnTreeCount(), sf.DelegatedCount())
		}
		return out
	}
	built, err := e.Build(g, a, eps, namingSeed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	blob := encode(built)
	restored, err := e.Restore(bits.NewReader(blob.Bytes(), blob.Len()), g, a)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	out := summary(built, blob)
	if again := summary(restored, encode(restored)); !bytes.Equal(again, out) {
		t.Fatalf("restored scheme differs from built: %s", gate.Diff(out, again))
	}
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

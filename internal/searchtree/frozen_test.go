package searchtree_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/racetest"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/treeroute"
)

// TestNewMatchesFrozenLoop builds the three schemes that own search
// trees and rebuilds every one of their trees with FrozenNew, the
// whole-net loop New replaced, on the dense backend: each must encode
// to the same bits. The families cover rounding ties (exp-path),
// distance ties (unit-path, grid-holes) and the fractal and power-law
// metrics; the schemes are built on the dense backend and on a lazy one
// whose 4n-entry cache evicts during the build.
func TestNewMatchesFrozenLoop(t *testing.T) {
	for fi, fam := range []string{"exp-path", "unit-path", "grid-holes", "fractal", "power-law"} {
		f, err := graph.LookupFamily(fam)
		if err != nil {
			t.Fatal(err)
		}
		n := 64
		if racetest.Enabled || fam == "exp-path" {
			// exp-path: every edge is its own distance scale, so the
			// schemes build about 2n levels of trees. At 32 nodes the
			// weights 4^i span 62 bits, so path sums still round.
			n = 32
		}
		g, err := f.Make(n, int64(fi+1))
		if err != nil {
			t.Fatal(err)
		}
		dense := metric.NewAPSP(g)
		for _, eps := range []float64{0.25, 0.1} {
			for _, backend := range []string{"dense", "lazy"} {
				t.Run(fmt.Sprintf("%s/eps=%v/%s", fam, eps, backend), func(t *testing.T) {
					var a metric.Distancer = dense
					if backend == "lazy" {
						a = metric.NewLazyOracleOpts(g, metric.LazyOpts{MaxEntries: 4 * g.N()})
					}
					checkFrozen(t, g, a, dense, eps)
				})
			}
		}
	}
}

// checkFrozen builds nameind.Simple, labeled.ScaleFree and
// nameind.ScaleFree over a and compares each of their trees with the
// frozen loop's tree on the dense oracle ref.
func checkFrozen(t *testing.T, g *graph.Graph, a metric.Distancer, ref *metric.APSP, eps float64) {
	t.Helper()
	nm := nameind.RandomNaming(g.N(), 7)
	under, err := labeled.NewSimple(g, a, eps)
	if err != nil {
		t.Fatal(err)
	}
	ni, err := nameind.NewSimple(g, a, nm, under, eps)
	if err != nil {
		t.Fatal(err)
	}
	sfl, err := labeled.NewScaleFree(g, a, eps)
	if err != nil {
		t.Fatal(err)
	}
	sfni, err := nameind.NewScaleFree(g, a, nm, sfl, eps)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := searchtree.Config{Eps: eps, MinNetRadius: ref.MinPairDistance()}
	capped := uncapped
	capped.MaxLevels = max(1, int(math.Ceil(math.Log2(float64(g.N())))))
	encLabel := func(w *bits.Writer, d int) { w.WriteUvarint(uint64(d)) }
	encPort := func(w *bits.Writer, l treeroute.PortLabel) { l.Encode(w) }
	compareTrees(t, "nameind.Simple", ni.SearchTrees(), ref, uncapped, encLabel)
	compareTrees(t, "nameind.ScaleFree", sfni.SearchTrees(), ref, uncapped, encLabel)
	compareTrees(t, "labeled.ScaleFree", sfl.SearchTrees(), ref, capped, encPort)
}

// compareTrees rebuilds each tree with FrozenNew under cfg, stores the
// tree's own pairs in it, and compares the two EncodeTree streams.
func compareTrees[D any](t *testing.T, scheme string, trees []*searchtree.Tree[D], ref *metric.APSP, cfg searchtree.Config, enc func(*bits.Writer, D)) {
	t.Helper()
	if len(trees) == 0 {
		t.Fatalf("%s: no search trees", scheme)
	}
	for i, tr := range trees {
		frozen, err := searchtree.FrozenNew[D](ref, tr.Center, tr.Radius, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []searchtree.Pair[D]
		for p := 0; p < tr.Len(); p++ {
			pairs = append(pairs, tr.Pairs(p)...)
		}
		frozen.Store(pairs)
		var got, want bits.Writer
		searchtree.EncodeTree(&got, tr, enc)
		searchtree.EncodeTree(&want, frozen, enc)
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s tree %d (center %d, radius %v): encodes to %d bits, the frozen loop's to %d, and they differ",
				scheme, i, tr.Center, tr.Radius, got.Len(), want.Len())
		}
	}
}

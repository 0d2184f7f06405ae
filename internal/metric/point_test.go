package metric

import (
	"fmt"
	"math"
	"testing"

	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
	"compactrouting/internal/par"
	"compactrouting/internal/racetest"
)

// pointFamilies are the graph families the point search is checked on:
// the power-law graphs the lazy backend serves, the doubling families,
// and the paths, ring and fractal whose long sums of very unequal
// weights make the kernel's rounding visible.
var pointFamilies = []string{"power-law", "power-law-w8", "geometric", "exp-path", "unit-path", "ring", "grid-holes", "fractal"}

// TestPointDistMatchesDense compares PointDist on the lazy backend with
// the dense backend's Dist bit for bit over every ordered pair, and
// checks that the searches built no row: a point query caches nothing.
func TestPointDistMatchesDense(t *testing.T) {
	n := 256
	if racetest.Enabled {
		n = 64
	}
	for _, fam := range pointFamilies {
		t.Run(fam, func(t *testing.T) {
			g := benchGraph(t, fam, n)
			n := g.N()
			dense := NewAPSP(g)
			lazy := NewLazyOracle(g)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					want := dense.Dist(u, v)
					if got := PointDist(lazy, u, v); !eqBits(got, want) {
						t.Fatalf("PointDist(%d, %d) = %v (%#x), dense Dist %v (%#x)",
							u, v, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if got := PointDist(dense, u, v); !eqBits(got, want) {
						t.Fatalf("dense PointDist(%d, %d) = %v, Dist %v", u, v, got, want)
					}
				}
			}
			st := lazy.Stats()
			if st.RowsBuilt != 0 || lazy.CachedEntries() != 0 || st.PointSearches != uint64(n*n) {
				t.Fatalf("%d point queries: %+v, %d cached entries; want %d searches and no rows",
					n*n, st, lazy.CachedEntries(), n*n)
			}
		})
	}
}

// TestPointDistUsesCachedRow checks that a cached row answers a point
// query before any search runs, with the same bits.
func TestPointDistUsesCachedRow(t *testing.T) {
	g := benchGraph(t, "power-law", 128)
	n := g.N()
	o := NewLazyOracle(g)
	ecc := o.Eccentricity(3) // caches node 3's complete row
	before := o.Stats()
	for v := 0; v < n; v++ {
		if got, want := PointDist(o, 3, v), o.Dist(3, v); !eqBits(got, want) {
			t.Fatalf("PointDist(3, %d) = %v, Dist %v", v, got, want)
		}
	}
	after := o.Stats()
	if after.PointSearches != 0 || after.LandmarkRows != 0 || after.Hits-before.Hits != uint64(2*n) {
		t.Fatalf("cached row did not answer the point queries: %+v -> %+v", before, after)
	}
	if d := PointDist(o, n-1, 3); d <= 0 || d > 2*ecc {
		t.Fatalf("PointDist(%d, 3) = %v outside (0, 2·ecc(3) = %v]", n-1, d, 2*ecc)
	}
	if st := o.Stats(); st.PointSearches != 1 || st.LandmarkRows != landmarkCount+1 {
		t.Fatalf("a cold point query: %+v, want 1 search and %d landmark rows", st, landmarkCount+1)
	}
}

// TestPointSearchWork pins the point search's counters byte-exact: a
// fixed set of pairs, searched from the par workers on a fresh oracle,
// must report the same searches, expansions and landmark rows at every
// GOMAXPROCS. Each search is a pure function of (graph, u, v) and the
// counters are sums, so the order the workers reach the oracle cannot
// show.
func TestPointSearchWork(t *testing.T) {
	g := benchGraph(t, "power-law", 512)
	n := g.N()
	const pairs = 2048
	var got LazyStats
	gate.Same(t, func() []byte {
		o := NewLazyOracle(g)
		out := make([]float64, pairs)
		par.For(pairs, func(i int) {
			out[i] = PointDist(o, (i*7)%n, (i*13+5)%n)
		})
		got = o.Stats()
		return fmt.Appendf(nil, "%v\n%+v", out, got)
	})
	want := LazyStats{PointSearches: pairs, PointExpanded: 100100, LandmarkRows: landmarkCount + 1}
	if got != want {
		t.Errorf("point search stats = %+v, want %+v", got, want)
	}
}

// fuzzPointGraph builds a connected graph with extreme weight ratios
// from fuzz bytes: a path 0—1—…—(n-1) of up to 64 nodes, then chords in
// triples (endpoint, endpoint, weight). A weight byte maps to
// (1 + m/4)·2^e with e in [-32, 31], so one graph can mix weights
// 2^64 apart and long paths of them round at every step.
func fuzzPointGraph(data []byte) (*graph.Graph, int, bool) {
	if len(data) < 4 {
		return nil, 0, false
	}
	n := 2 + int(data[0])%63
	b := graph.NewBuilder(n)
	w := func(raw byte) float64 { return math.Ldexp(1+float64(raw&3)/4, int(raw>>2)-32) }
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(i, i+1, w(data[1+i%(len(data)-1)])); err != nil {
			return nil, 0, false
		}
	}
	for i := 4; i+2 < len(data); i += 3 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, w(data[i+2])); err != nil {
			return nil, 0, false
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, 0, false
	}
	return g, n, true
}

// fuzzPointSeeds is FuzzPointDist's checked-in corpus: the longest
// path of the smallest weights against a single heaviest edge, the
// largest-to-smallest ratio alternating along the path, a long path
// whose light edges fall below half an ulp of the heavy prefix, chords
// that shortcut a heavy path with light edges, a dense blob of mixed
// scales, a graph on which the search answers one ulp off when the
// slack τ is dropped, and one on which it does when a popped node is
// never queued again (each found by fuzzing that mutant).
func fuzzPointSeeds() [][]byte {
	return [][]byte{
		{62, 0, 0, 255},
		{62, 255, 0, 255, 0, 255, 0, 255, 0},
		{62, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{40, 250, 251, 252, 0, 39, 0, 5, 30, 8, 10, 20, 1},
		{20, 128, 3, 64, 0, 10, 255, 1, 11, 0, 2, 12, 128, 3, 13, 60, 4, 14, 200, 5, 15, 9},
		[]byte("0\xff0(,' 2+0000"),
		[]byte("00\xff0(12)00"),
	}
}

// FuzzPointDist differentially fuzzes the point search against a full
// Dijkstra row: the input bytes choose a graph and a source, and
// PointDist from that source to every node must equal the row bit for
// bit.
func FuzzPointDist(f *testing.F) {
	for _, data := range fuzzPointSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, n, ok := fuzzPointGraph(data)
		if !ok {
			return
		}
		u := int(data[1]) % n
		row := Dijkstra(g, u).Dist
		o := NewLazyOracle(g)
		for v := 0; v < n; v++ {
			if got := PointDist(o, u, v); !eqBits(got, row[v]) {
				t.Fatalf("PointDist(%d, %d) = %v (%#x), Dijkstra %v (%#x)",
					u, v, got, math.Float64bits(got), row[v], math.Float64bits(row[v]))
			}
		}
	})
}

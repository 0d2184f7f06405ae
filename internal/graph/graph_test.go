package graph

import (
	"math"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 3, 2", g.N(), g.M())
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 2.5 {
		t.Fatalf("EdgeWeight(1,0) = %v,%v want 2.5,true", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 2); ok {
		t.Fatal("EdgeWeight(0,2) should not exist")
	}
	if g.MinEdgeWeight() != 1 {
		t.Fatalf("MinEdgeWeight = %v, want 1", g.MinEdgeWeight())
	}
	if g.Degree(1) != 2 || g.MaxDegree() != 2 {
		t.Fatalf("Degree(1)=%d MaxDegree=%d, want 2,2", g.Degree(1), g.MaxDegree())
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(2)
	cases := []struct {
		u, v int
		w    float64
	}{
		{0, 0, 1},           // self loop
		{-1, 0, 1},          // out of range
		{0, 2, 1},           // out of range
		{0, 1, 0},           // zero weight
		{0, 1, -3},          // negative weight
		{0, 1, math.Inf(1)}, // inf
		{0, 1, math.NaN()},  // nan
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) accepted", c.u, c.v, c.w)
		}
	}
}

func TestBuilderParallelEdgeKeepsMin(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 2 {
		t.Fatalf("weight = %v, want 2", w)
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a disconnected graph")
	}
}

func TestBuildSingleNode(t *testing.T) {
	g, err := NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("N=%d M=%d, want 1,0", g.N(), g.M())
	}
}

func TestGridDims(t *testing.T) {
	g, err := Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d, want 20", g.N())
	}
	wantM := 4*4 + 3*5 // horizontal + vertical
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d, want 4", g.MaxDegree())
	}
}

func TestGridWithHolesConnected(t *testing.T) {
	g, pos, err := GridWithHoles(20, 20, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 200 {
		t.Fatalf("component too small: %d", g.N())
	}
	if len(pos) != g.N() {
		t.Fatalf("pos len %d != N %d", len(pos), g.N())
	}
	// Every edge must join grid-adjacent surviving cells.
	for v := 0; v < g.N(); v++ {
		for _, e := range g.Neighbors(v) {
			dr := pos[v][0] - pos[e.To][0]
			dc := pos[v][1] - pos[e.To][1]
			if dr*dr+dc*dc != 1 {
				t.Fatalf("edge %d-%d joins non-adjacent cells %v %v", v, e.To, pos[v], pos[e.To])
			}
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	g, pts, err := RandomGeometric(200, 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 100 {
		t.Fatalf("component too small: %d", g.N())
	}
	if len(pts) != g.N() {
		t.Fatalf("pts len %d != N %d", len(pts), g.N())
	}
	if w := g.MinEdgeWeight(); math.Abs(w-1) > 1e-9 {
		t.Fatalf("MinEdgeWeight = %v, want 1 after scaling", w)
	}
	// Edge weights must equal scaled Euclidean distances.
	for v := 0; v < g.N(); v++ {
		for _, e := range g.Neighbors(v) {
			d := math.Hypot(pts[v][0]-pts[e.To][0], pts[v][1]-pts[e.To][1])
			if math.Abs(d-e.Weight) > 1e-6*d {
				t.Fatalf("edge %d-%d weight %v != distance %v", v, e.To, e.Weight, d)
			}
		}
	}
}

func TestExponentialPath(t *testing.T) {
	g, err := ExponentialPath(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.M() != 9 {
		t.Fatalf("N=%d M=%d, want 10,9", g.N(), g.M())
	}
	if w, _ := g.EdgeWeight(8, 9); w != 256 {
		t.Fatalf("last edge = %v, want 256", w)
	}
}

func TestExponentialStar(t *testing.T) {
	g, err := ExponentialStar(31, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 31 {
		t.Fatalf("N = %d, want 31", g.N())
	}
	if g.Degree(0) != 3 {
		t.Fatalf("hub degree = %d, want 3", g.Degree(0))
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	g, err := RandomTree(100, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != g.N()-1 {
		t.Fatalf("M = %d, want %d", g.M(), g.N()-1)
	}
}

func TestCaterpillarTree(t *testing.T) {
	g, err := CaterpillarTree(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 || g.M() != 19 {
		t.Fatalf("N=%d M=%d, want 20,19", g.N(), g.M())
	}
	if g.MaxDegree() != 5 { // interior spine node: 2 spine + 3 legs
		t.Fatalf("MaxDegree = %d, want 5", g.MaxDegree())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sub, old, err := g.InducedSubgraph([]int{0, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 4 || sub.M() != 3 {
		t.Fatalf("sub N=%d M=%d, want 4,3", sub.N(), sub.M())
	}
	if old[3] != 5 {
		t.Fatalf("old[3] = %d, want 5", old[3])
	}
	if _, _, err := g.InducedSubgraph([]int{0, 8}); err == nil {
		t.Fatal("disconnected induced subgraph accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Fatal("duplicate keep node accepted")
	}
}

func TestFractal(t *testing.T) {
	g, err := Fractal(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 || g.M() != 63 {
		t.Fatalf("N=%d M=%d, want 64,63", g.N(), g.M())
	}
	// Level-1 edges weight 1, level-3 edges weight 4.
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 1 {
		t.Fatalf("level-1 edge = %v,%v", w, ok)
	}
	if w, ok := g.EdgeWeight(0, 16); !ok || w != 4 {
		t.Fatalf("level-3 edge = %v,%v", w, ok)
	}
	if _, err := Fractal(0, 4, 2); err == nil {
		t.Fatal("levels=0 accepted")
	}
	if _, err := Fractal(3, 1, 2); err == nil {
		t.Fatal("branch=1 accepted")
	}
	if _, err := Fractal(3, 4, 1); err == nil {
		t.Fatal("scale=1 accepted")
	}
}

func TestNeighborWeightMatchesEdgeWeight(t *testing.T) {
	// The binary search over a sorted adjacency list answers exactly
	// what EdgeWeight's linear scan does, for every ordered pair: the
	// power-law graph mixes hubs (long lists) with degree-1 leaves.
	g, err := PowerLaw(120, 2, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := -1; v <= g.N(); v++ {
			w, ok := g.NeighborWeight(u, v)
			rw, rok := g.EdgeWeight(u, v)
			if ok != rok || w != rw {
				t.Fatalf("NeighborWeight(%d, %d) = (%v, %v), EdgeWeight (%v, %v)", u, v, w, ok, rw, rok)
			}
		}
	}
}

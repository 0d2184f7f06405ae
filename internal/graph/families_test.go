package graph

import (
	"math"
	"reflect"
	"testing"
)

// edgeList is g's undirected edges in ascending (u, v) order, u < v.
func edgeList(g *Graph) []wEdge {
	var out []wEdge
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				out = append(out, wEdge{u, e.To, e.Weight})
			}
		}
	}
	return out
}

// wEdge is one undirected edge with its weight.
type wEdge struct {
	U, V int
	W    float64
}

// TestFamiliesMatchGenerators pins every table row to the direct
// generator call the drivers made before the table existed.
func TestFamiliesMatchGenerators(t *testing.T) {
	const n, seed = 40, 3
	drop := func(g *Graph, _ any, err error) (*Graph, error) { return g, err }
	direct := map[string]func() (*Graph, error){
		"geometric": func() (*Graph, error) {
			return drop(RandomGeometric(n, 1.8*math.Sqrt(math.Log(n)/n), seed))
		},
		"grid":        func() (*Graph, error) { return Grid(7, 7) },
		"grid-holes":  func() (*Graph, error) { return drop(GridWithHoles(7, 7, 0.25, seed)) },
		"ring":        func() (*Graph, error) { return Ring(n) },
		"exp-path":    func() (*Graph, error) { return ExponentialPath(n, 4) },
		"unit-path":   func() (*Graph, error) { return Path(n, 1) },
		"exp-star":    func() (*Graph, error) { return ExponentialStar(n, 3, 4) },
		"random-tree": func() (*Graph, error) { return RandomTree(n, 4, seed) },
		"fractal":     func() (*Graph, error) { return Fractal(3, 4, 4) },
		"power-law":   func() (*Graph, error) { return PowerLaw(n, 2, 1024, seed) },
		"power-law-w8": func() (*Graph, error) {
			return PowerLaw(n, 2, 8, seed)
		},
	}
	if len(direct) != len(families) {
		t.Fatalf("table has %d rows, test covers %d", len(families), len(direct))
	}
	for _, f := range families {
		want, err := direct[f.Name]()
		if err != nil {
			t.Fatalf("%s: direct call: %v", f.Name, err)
		}
		got, err := f.Make(n, seed)
		if err != nil {
			t.Fatalf("%s: Make: %v", f.Name, err)
		}
		if !reflect.DeepEqual(edgeList(got), edgeList(want)) || got.N() != want.N() {
			t.Errorf("%s: table row differs from the direct generator call", f.Name)
		}
	}
}

// TestFamiliesDeterministic checks every row is a pure function of
// (n, seed).
func TestFamiliesDeterministic(t *testing.T) {
	for _, f := range families {
		a, err := f.Make(33, 9)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		b, err := f.Make(33, 9)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !reflect.DeepEqual(edgeList(a), edgeList(b)) || f.Label(33, a) != f.Label(33, b) {
			t.Errorf("%s: two builds at the same (n, seed) differ", f.Name)
		}
	}
}

// TestPowerLawRows checks the two power-law rows are distinct workloads
// with distinct labels, the w8 row keeping the label routebench has
// always printed.
func TestPowerLawRows(t *testing.T) {
	wide, err := LookupFamily("power-law")
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := LookupFamily("power-law-w8")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := wide.Make(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	gn, err := narrow.Make(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(edgeList(gw), edgeList(gn)) {
		t.Error("power-law and power-law-w8 build the same graph")
	}
	if lw, ln := wide.Label(64, gw), narrow.Label(64, gn); lw == ln {
		t.Errorf("power-law rows share the label %q", lw)
	}
	if got := narrow.Label(64, gn); got != "power-law n=64" {
		t.Errorf("power-law-w8 label = %q, want %q", got, "power-law n=64")
	}
}

func TestLookupFamily(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range families {
		if seen[f.Name] {
			t.Errorf("family %q listed twice", f.Name)
		}
		seen[f.Name] = true
		if got, err := LookupFamily(f.Name); err != nil || got.Name != f.Name {
			t.Errorf("LookupFamily(%q) = %q, %v", f.Name, got.Name, err)
		}
	}
	if _, err := LookupFamily("path"); err == nil {
		t.Error("LookupFamily accepted an unknown name")
	}
}

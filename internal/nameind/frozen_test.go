package nameind

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/racetest"
)

// frozenCase is one built scheme next to its frozen loop.
type frozenCase struct {
	name    string
	nm      *Naming
	route   func(src, name int) (*core.Route, error)
	explain func(src, name int) (*Explanation, error)
	frozen  *frozenLoop
}

// forFrozenCases builds both schemes on the five families the frozen
// comparisons run on, at ε 0.25 (dense names) and 0.1 (names from a
// 2^40 space), and calls check on each. exp-path is the stationary-zoom
// case: its hierarchy is about 2n levels deep and many levels resolve
// without a hop; exp-star drives Algorithm 4's delegations.
func forFrozenCases(t *testing.T, check func(t *testing.T, c frozenCase, pairs [][2]int)) {
	for fi, fam := range []string{"grid-holes", "geometric", "power-law", "exp-star", "exp-path"} {
		f, err := graph.LookupFamily(fam)
		if err != nil {
			t.Fatal(err)
		}
		n := 64
		if racetest.Enabled || fam == "exp-path" {
			n = 32
		}
		g, err := f.Make(n, int64(fi+3))
		if err != nil {
			t.Fatal(err)
		}
		a := metric.NewAPSP(g)
		pairs := core.SamplePairs(g.N(), 120, int64(fi+5))
		for v := 0; v < g.N(); v += 5 {
			pairs = append(pairs, [2]int{v, v})
		}
		for _, eps := range []float64{0.25, 0.1} {
			nm := RandomNaming(g.N(), int64(fi+7))
			if eps < 0.25 {
				if nm, err = SparseRandomNaming(g.N(), 1<<40, int64(fi+7)); err != nil {
					t.Fatal(err)
				}
			}
			t.Run(fmt.Sprintf("%s/eps=%v", fam, eps), func(t *testing.T) {
				fx := fixture{g: g, a: a}
				s := newSimpleScheme(t, fx, nm, eps)
				check(t, frozenCase{"simple", nm, s.RouteToName, s.Explain, frozenSimple(s)}, pairs)
				sf := newScaleFreeScheme(t, fx, nm, eps)
				check(t, frozenCase{"scale-free", nm, sf.RouteToName, sf.Explain, frozenScaleFree(sf)}, pairs)
			})
		}
	}
}

// TestRouteToNameMatchesFrozenLoop pins both schemes' RouteToName, one
// walk of Step, to the virtual-edge loop it replaced: Dst, Path and the
// cost's bits. Headers differ by design: the walk reports the header
// that travels, the loop an underlying header plus a fixed wrapper.
func TestRouteToNameMatchesFrozenLoop(t *testing.T) {
	forFrozenCases(t, func(t *testing.T, c frozenCase, pairs [][2]int) {
		for _, p := range pairs {
			name := c.nm.NameOf(p[1])
			want, err := c.frozen.route(p[0], name, nil)
			if err != nil {
				t.Fatalf("%s %v: frozen loop: %v", c.name, p, err)
			}
			got, err := c.route(p[0], name)
			if err != nil {
				t.Fatalf("%s %v: RouteToName: %v", c.name, p, err)
			}
			if got.Src != want.Src || got.Dst != want.Dst || !slices.Equal(got.Path, want.Path) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("%s %v: RouteToName %+v, frozen loop %+v", c.name, p, *got, *want)
			}
		}
	})
}

// TestExplainMatchesFrozenLoop pins both schemes' Explain, an observer
// of the Step walk, to the frozen loop's anatomy: every field, floats
// by their bits, so Figure 1 stays byte-identical.
func TestExplainMatchesFrozenLoop(t *testing.T) {
	forFrozenCases(t, func(t *testing.T, c frozenCase, pairs [][2]int) {
		for _, p := range pairs {
			name := c.nm.NameOf(p[1])
			want, err := c.frozen.explain(p[0], name)
			if err != nil {
				t.Fatalf("%s %v: frozen loop: %v", c.name, p, err)
			}
			got, err := c.explain(p[0], name)
			if err != nil {
				t.Fatalf("%s %v: Explain: %v", c.name, p, err)
			}
			if !sameExplanation(got, want) {
				t.Fatalf("%s %v: Explain %+v, frozen loop %+v", c.name, p, *got, *want)
			}
		}
	})
}

func sameExplanation(a, b *Explanation) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Src != b.Src || a.Dst != b.Dst || len(a.Levels) != len(b.Levels) ||
		!same(a.FinalCost, b.FinalCost) || !same(a.TotalCost, b.TotalCost) || !same(a.Optimal, b.Optimal) {
		return false
	}
	for i, x := range a.Levels {
		y := b.Levels[i]
		if x.Level != y.Level || x.Found != y.Found || !same(x.SearchCost, y.SearchCost) || !same(x.ZoomCost, y.ZoomCost) {
			return false
		}
	}
	return true
}

// TestExplainRejectsBadSource: Explain checks the source itself, as
// RouteToName does, before the walk's first Step reads it.
func TestExplainRejectsBadSource(t *testing.T) {
	f := geoFixture(t, 40, 44)
	nm := RandomNaming(f.g.N(), 3)
	s := newSimpleScheme(t, f, nm, 0.25)
	sf := newScaleFreeScheme(t, f, nm, 0.25)
	for _, src := range []int{-1, f.g.N()} {
		if _, err := s.Explain(src, nm.NameOf(0)); err == nil {
			t.Fatalf("simple: source %d accepted", src)
		}
		if _, err := sf.Explain(src, nm.NameOf(0)); err == nil {
			t.Fatalf("scale-free: source %d accepted", src)
		}
	}
}

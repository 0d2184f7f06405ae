package graph

import (
	"fmt"
	"math"
	"strings"
)

// Family is one named generator family: the parameters every driver
// (routed, routebench, routeload, graphgen) and the experiment harness
// build that family with, written down once.
type Family struct {
	// Name is the family's name on every -graph / -kind flag.
	Name string
	// Make builds the family's graph targeting n nodes. seed keys the
	// random families; the deterministic ones ignore it.
	Make func(n int, seed int64) (*Graph, error)
	// Label is the display name experiments print for g = Make(n, ·).
	Label func(n int, g *Graph) string
}

// ExpBase is the weight base of the exponential families (exp-path,
// exp-star, fractal).
const ExpBase = 4

// families is the table, in flag-usage order. It is a slice, not a
// map, so every listing of it is deterministic. The two power-law rows
// differ only in their weight ceiling: power-law (1024) is the
// Internet-like workload routed, graphgen and the serving benchmark
// run; power-law-w8 (8) is the one routebench's lazy-backend sweeps and
// gates have always measured, and it keeps their label.
var families = []Family{
	{
		Name: "geometric",
		Make: func(n int, seed int64) (*Graph, error) {
			// 1.8x the connectivity threshold radius.
			g, _, err := RandomGeometric(n, 1.8*math.Sqrt(math.Log(float64(n))/float64(n)), seed)
			return g, err
		},
		Label: func(_ int, g *Graph) string { return fmt.Sprintf("geometric n=%d", g.N()) },
	},
	{
		Name: "grid",
		Make: func(n int, _ int64) (*Graph, error) {
			side := gridSide(n)
			return Grid(side, side)
		},
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("grid %dx%d", gridSide(n), gridSide(n)) },
	},
	{
		Name: "grid-holes",
		Make: func(n int, seed int64) (*Graph, error) {
			side := gridSide(n)
			g, _, err := GridWithHoles(side, side, 0.25, seed)
			return g, err
		},
		Label: func(n int, _ *Graph) string {
			return fmt.Sprintf("grid-holes %dx%d", gridSide(n), gridSide(n))
		},
	},
	{
		Name:  "ring",
		Make:  func(n int, _ int64) (*Graph, error) { return Ring(n) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("ring n=%d", n) },
	},
	{
		Name:  "exp-path",
		Make:  func(n int, _ int64) (*Graph, error) { return ExponentialPath(n, ExpBase) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("exp-path n=%d base=%d", n, ExpBase) },
	},
	{
		Name:  "unit-path",
		Make:  func(n int, _ int64) (*Graph, error) { return Path(n, 1) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("unit-path n=%d", n) },
	},
	{
		Name:  "exp-star",
		Make:  func(n int, _ int64) (*Graph, error) { return ExponentialStar(n, 3, ExpBase) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("exp-star n=%d", n) },
	},
	{
		Name:  "random-tree",
		Make:  func(n int, seed int64) (*Graph, error) { return RandomTree(n, 4, seed) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("random-tree n=%d", n) },
	},
	{
		Name: "fractal",
		Make: func(n int, _ int64) (*Graph, error) {
			// The smallest branch-4 fractal with at least n nodes.
			levels := 1
			for size := 4; size < n; size *= 4 {
				levels++
			}
			return Fractal(levels, 4, ExpBase)
		},
		Label: func(_ int, g *Graph) string { return fmt.Sprintf("fractal n=%d b=4", g.N()) },
	},
	{
		Name:  "power-law",
		Make:  func(n int, seed int64) (*Graph, error) { return PowerLaw(n, 2, 1024, seed) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("power-law n=%d maxW=1024", n) },
	},
	{
		Name:  "power-law-w8",
		Make:  func(n int, seed int64) (*Graph, error) { return PowerLaw(n, 2, 8, seed) },
		Label: func(n int, _ *Graph) string { return fmt.Sprintf("power-law n=%d", n) },
	},
}

// gridSide is the side of the smallest square grid with at least n
// cells.
func gridSide(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }

// LookupFamily returns the family registered under name.
func LookupFamily(name string) (Family, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("unknown graph family %q (want %s)", name, FamilyNames())
}

// FamilyNames lists the family names as "a|b|...", for flag usage
// strings and errors.
func FamilyNames() string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.Name
	}
	return strings.Join(names, "|")
}

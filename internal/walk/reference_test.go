package walk_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/walk"
)

// loopRules is what the hand-written RouteToLabel loops differed in: the
// step budget, the header accounting and the fallback flag.
type loopRules[H walk.Header] struct {
	// maxSteps fails the loop once step > maxSteps.
	maxSteps int
	// upFront, when non-nil, is charged once before the first step,
	// given the prepared header (the baselines); hopHeaders charges
	// every hop's header (the labeled schemes).
	upFront    func(h H) int
	hopHeaders bool
	// fallback, when non-nil, marks the route from a step's header.
	fallback func(H) bool
	// want is the node the route must end at.
	want func(dst int) int
}

// frozenRoute is the sequential loop the labeled and baseline schemes'
// RouteToLabel ran before each became one walk.Route call, kept as the
// reference they are compared against: a core.Trace, the header max
// over hop headers only (the prepared header is never counted), the
// fallback mark taken before the arrival test and the loop's own step
// budget.
func frozenRoute[H walk.Header](g *graph.Graph, r walk.Router[H], src, dst int, rules loopRules[H]) (*core.Route, error) {
	h, err := r.PrepareHeader(dst)
	if err != nil {
		return nil, err
	}
	tr := core.NewTrace(g, src)
	if rules.upFront != nil {
		tr.Header(rules.upFront(h))
	}
	for step := 0; ; step++ {
		if step > rules.maxSteps {
			return nil, fmt.Errorf("no progress routing to %d", dst)
		}
		next, nh, arrived, err := r.Step(tr.At(), h)
		if err != nil {
			return nil, err
		}
		if rules.fallback != nil && rules.fallback(nh) {
			tr.MarkFallback()
		}
		if arrived {
			return tr.Finish(rules.want(dst))
		}
		if rules.hopHeaders {
			tr.Header(nh.Bits())
		}
		if err := tr.Hop(next); err != nil {
			return nil, err
		}
		h = nh
	}
}

// frozenCase is one scheme with its header type erased: the frozen loop
// and the scheme's RouteToLabel over the same address.
type frozenCase struct {
	name   string
	addr   func(v int) int
	frozen func(src, dst int) (*core.Route, error)
	route  func(src, dst int) (*core.Route, error)
}

func bindFrozen[H walk.Header](name string, g *graph.Graph, r walk.Router[H], addr func(int) int,
	rules loopRules[H], route func(src, dst int) (*core.Route, error)) frozenCase {
	return frozenCase{
		name:   name,
		addr:   addr,
		frozen: func(src, dst int) (*core.Route, error) { return frozenRoute(g, r, src, dst, rules) },
		route:  route,
	}
}

// TestRouteToLabelMatchesFrozenLoop pins every walk.Route-backed
// RouteToLabel to the loop it replaced, field for field: Dst, Path,
// Cost bits, MaxHeaderBits and Fallback, on sampled pairs and every
// self-route, over three graph families at two ε.
func TestRouteToLabelMatchesFrozenLoop(t *testing.T) {
	grid, err := graph.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	geo, _, err := graph.RandomGeometric(64, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	power, err := graph.PowerLaw(64, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"grid", grid}, {"geometric", geo}, {"power-law", power}} {
		for _, eps := range []float64{0.1, 0.25} {
			t.Run(fmt.Sprintf("%s/eps=%v", gc.name, eps), func(t *testing.T) {
				for _, c := range frozenCases(t, gc.g, eps) {
					checkFrozen(t, c, gc.g.N())
				}
			})
		}
	}
}

func frozenCases(t *testing.T, g *graph.Graph, eps float64) []frozenCase {
	t.Helper()
	n := g.N()
	a := metric.NewAPSP(g)
	simple, err := labeled.NewSimple(g, a, eps)
	if err != nil {
		t.Fatal(err)
	}
	free, err := labeled.NewScaleFree(g, a, eps)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]byte, n)
	sizes := make([]int, n)
	for v := range tables {
		tables[v], sizes[v] = simple.EncodeTable(v)
	}
	decoded, err := labeled.DecodeSimple(g, tables, sizes)
	if err != nil {
		t.Fatal(err)
	}
	full := baseline.NewFullTable(g, a)
	tree, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := func(v int) int { return v }
	top := simple.MaxLevel()
	return []frozenCase{
		bindFrozen[labeled.SimpleHeader]("simple", g, simple, simple.LabelOf,
			loopRules[labeled.SimpleHeader]{maxSteps: 4 * n * (top + 2), hopHeaders: true, want: simple.NodeOfLabel},
			simple.RouteToLabel),
		bindFrozen[labeled.SFHeader]("scale-free", g, free, free.LabelOf,
			loopRules[labeled.SFHeader]{maxSteps: 16 * n * (free.Hierarchy().TopLevel() + 2), hopHeaders: true,
				fallback: func(h labeled.SFHeader) bool { return h.Fallback }, want: free.NodeOfLabel},
			free.RouteToLabel),
		bindFrozen[labeled.SimpleHeader]("decoded-simple", g, decoded, simple.LabelOf,
			loopRules[labeled.SimpleHeader]{maxSteps: 8 * n * (top + 1), hopHeaders: true, want: simple.NodeOfLabel},
			decoded.RouteToLabel),
		// The full-table loop had no budget (a shortest path takes
		// fewer than n hops) and charged the fixed-width id.
		bindFrozen[baseline.Destination]("full-table", g, full, id,
			loopRules[baseline.Destination]{maxSteps: n * n,
				upFront: func(baseline.Destination) int { return bits.UintBits(n) }, want: id},
			full.RouteToLabel),
		// treeroute.Route allowed Size()+1 hops; the loop charged the
		// destination's tree label.
		bindFrozen[baseline.TreeHeader]("single-tree", g, tree, id,
			loopRules[baseline.TreeHeader]{maxSteps: n + 1, upFront: baseline.TreeHeader.Bits, want: id},
			tree.RouteToLabel),
		// No scale-free route on these graphs takes a fallback, so a
		// full table that flags some steps' headers holds walk.Route to
		// the loop's fallback rule: some routes are flagged only on a
		// hop, others only on the arrival step.
		bindFrozen[flaggedHeader]("flagged-full-table", g, flagged{full}, id,
			loopRules[flaggedHeader]{maxSteps: n * n, hopHeaders: true, fallback: flaggedHeader.flagged, want: id},
			func(src, dst int) (*core.Route, error) {
				return walk.Route[flaggedHeader](g, flagged{full}, src, dst, 0, flaggedHeader.flagged)
			}),
	}
}

// flaggedHeader is the full table's header with a fallback flag.
type flaggedHeader struct {
	baseline.Destination
	flag bool
}

func (h flaggedHeader) flagged() bool { return h.flag }

// flagged is the full table, flagging the header of every step taken
// at a node divisible by three.
type flagged struct{ *baseline.FullTable }

func (r flagged) PrepareHeader(dst int) (flaggedHeader, error) {
	d, err := r.FullTable.PrepareHeader(dst)
	return flaggedHeader{Destination: d}, err
}

func (r flagged) Step(node int, h flaggedHeader) (int, flaggedHeader, bool, error) {
	next, d, arrived, err := r.FullTable.Step(node, h.Destination)
	return next, flaggedHeader{Destination: d, flag: node%3 == 0}, arrived, err
}

func checkFrozen(t *testing.T, c frozenCase, n int) {
	t.Helper()
	pairs := core.SamplePairs(n, 150, 11)
	for v := 0; v < n; v++ {
		pairs = append(pairs, [2]int{v, v})
	}
	for _, p := range pairs {
		dst := c.addr(p[1])
		want, err := c.frozen(p[0], dst)
		if err != nil {
			t.Fatalf("%s %v: frozen loop: %v", c.name, p, err)
		}
		got, err := c.route(p[0], dst)
		if err != nil {
			t.Fatalf("%s %v: RouteToLabel: %v", c.name, p, err)
		}
		if got.Src != want.Src || got.Dst != want.Dst || !slices.Equal(got.Path, want.Path) ||
			math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
			got.MaxHeaderBits != want.MaxHeaderBits || got.Fallback != want.Fallback {
			t.Fatalf("%s %v: RouteToLabel %+v, frozen loop %+v", c.name, p, *got, *want)
		}
	}
}

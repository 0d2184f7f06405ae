package sim

import (
	"math"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
)

// TestAdaptersMatchSequentialRouters drives every adapter in
// adapters.go through RouteOnce on a small fixed graph and asserts the
// walk is identical to the scheme's own RouteTo* method: the adapters
// must be pure plumbing, never a second routing implementation.
func TestAdaptersMatchSequentialRouters(t *testing.T) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	n := g.N()

	simple, err := labeled.NewSimple(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	free, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := nameind.RandomNaming(n, 3)
	niUnder, err := labeled.NewSimple(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ni, err := nameind.NewSimple(g, a, nm, niUnder, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sfUnder, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sfni, err := nameind.NewScaleFree(g, a, nm, sfUnder, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	full := baseline.NewFullTable(g, a)
	tree, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Each case erases the adapter's header type behind drivers so one
	// table drives all six adapters through every driver.
	cases := []struct {
		name string
		// addr maps a destination node to the adapter's address space.
		addr func(dst int) int
		drv  drivers
		// sequential is the scheme's own driver for the same address.
		sequential func(src, addr int) (*core.Route, error)
	}{
		{"SimpleLabeledRouter", simple.LabelOf,
			bindDrivers[labeled.SimpleHeader](g, SimpleLabeledRouter{S: simple}, 0), simple.RouteToLabel},
		{"ScaleFreeLabeledRouter", free.LabelOf,
			bindDrivers[labeled.SFHeader](g, ScaleFreeLabeledRouter{S: free}, 64*n), free.RouteToLabel},
		{"NameIndependentRouter", nm.NameOf,
			bindDrivers[nameind.NIHeader](g, NameIndependentRouter{S: ni}, 256*n), ni.RouteToName},
		{"ScaleFreeNameIndependentRouter", nm.NameOf,
			bindDrivers[nameind.SFNIHeader](g, ScaleFreeNameIndependentRouter{S: sfni}, 512*n), sfni.RouteToName},
		{"FullTableRouter", func(dst int) int { return dst },
			bindDrivers[baseline.Destination](g, FullTableRouter{S: full}, 0), full.RouteToLabel},
		{"SingleTreeRouter", func(dst int) int { return dst },
			bindDrivers[baseline.TreeHeader](g, SingleTreeRouter{S: tree}, 0), tree.RouteToLabel},
	}

	pairs := core.SamplePairs(n, 120, 9)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deliveries := make([]Delivery, len(pairs))
			for i, p := range pairs {
				deliveries[i] = Delivery{Src: p[0], Dst: tc.addr(p[1])}
			}
			concurrent := tc.drv.run(deliveries)
			for i, p := range pairs {
				addr := tc.addr(p[1])
				got := tc.drv.once(p[0], addr)
				if got.Err != nil {
					t.Fatalf("pair %v: adapter failed: %v", p, got.Err)
				}
				want, err := tc.sequential(p[0], addr)
				if err != nil {
					t.Fatalf("pair %v: sequential failed: %v", p, err)
				}
				if got.Dst != p[1] {
					t.Fatalf("pair %v: arrived at %d", p, got.Dst)
				}
				if len(got.Path) != len(want.Path) {
					t.Fatalf("pair %v: adapter path %v vs sequential %v", p, got.Path, want.Path)
				}
				for k := range got.Path {
					if got.Path[k] != want.Path[k] {
						t.Fatalf("pair %v: paths diverge at hop %d: %v vs %v", p, k, got.Path, want.Path)
					}
				}
				if math.Abs(got.Cost-want.Cost) > 1e-9 {
					t.Fatalf("pair %v: cost %v vs %v", p, got.Cost, want.Cost)
				}
				// Header byte layouts differ between the step-function
				// headers and the sequential traces' accounting, so only
				// require that the adapter accounted something.
				if got.MaxHeaderBits <= 0 {
					t.Fatalf("pair %v: no header accounting", p)
				}
				// The three drivers must agree bit for bit.
				shapes := map[string]walkShape{
					"RouteOnce": shapeOf(got),
					"RouteLite": liteShape(tc.drv.lite(p[0], addr)),
					"Run":       shapeOf(concurrent[i]),
				}
				for driver, s := range shapes {
					if s != shapes["RouteOnce"] {
						t.Fatalf("pair %v: %s walk %+v, RouteOnce %+v", p, driver, s, shapes["RouteOnce"])
					}
				}
			}
		})
	}
}

// drivers erases one adapter's header type behind the three route
// drivers.
type drivers struct {
	once func(src, addr int) Result
	lite func(src, addr int) LiteResult
	run  func(deliveries []Delivery) []Result
}

func bindDrivers[H Header](g *graph.Graph, r Router[H], maxHops int) drivers {
	return drivers{
		once: func(src, addr int) Result { return RouteOnce(g, r, src, addr, maxHops) },
		lite: func(src, addr int) LiteResult { return RouteLite(g, r, src, addr, maxHops) },
		run:  func(deliveries []Delivery) []Result { return Run(g, r, deliveries, maxHops) },
	}
}

// walkShape is what every driver reports about a walk, with the cost
// compared bit for bit.
type walkShape struct {
	dst, hops, maxHeaderBits int
	costBits                 uint64
	err                      string
}

func shapeOf(r Result) walkShape {
	s := walkShape{dst: r.Dst, hops: len(r.Path) - 1, maxHeaderBits: r.MaxHeaderBits, costBits: math.Float64bits(r.Cost)}
	if r.Err != nil {
		s.err = r.Err.Error()
	}
	return s
}

func liteShape(r LiteResult) walkShape {
	s := walkShape{dst: r.Dst, hops: r.Hops, maxHeaderBits: r.MaxHeaderBits, costBits: math.Float64bits(r.Cost)}
	if r.Err != nil {
		s.err = r.Err.Error()
	}
	return s
}

// TestRouteOnceHopLimit mirrors Run's hop-limit behavior for the
// sequential driver.
func TestRouteOnceHopLimit(t *testing.T) {
	g, err := graph.Path(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	s := baseline.NewFullTable(g, a)
	res := RouteOnce[baseline.Destination](g, FullTableRouter{S: s}, 0, 9, 3)
	if res.Err == nil {
		t.Fatal("hop limit not enforced")
	}
	res = RouteOnce[baseline.Destination](g, FullTableRouter{S: s}, 0, 9, 0)
	if res.Err != nil || res.Dst != 9 || len(res.Path) != 10 {
		t.Fatalf("default hop limit run: %+v", res)
	}
}

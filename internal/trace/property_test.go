package trace_test

// Property sweep for the tracing layer: across seeded doubling
// workloads (paths, rings, holed grids, random geometric), every traced
// route of every scheme must
//
//   - satisfy the scheme's analytical stretch bound,
//   - carry hop records whose walk matches Result.Path edge for edge
//     and whose distances sum BIT-IDENTICALLY to Result.Cost,
//   - replay byte-for-byte on a second run, and
//   - produce the same bytes from the concurrent simulator (RunTraced)
//     as from the sequential driver, at GOMAXPROCS 1 and 8.
//
// The sweep covers >= 20 seeds x 3 sizes and routes >= 1000 pairs per
// scheme (asserted at the end, so the coverage floor cannot silently
// erode).

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/schemes"
	"compactrouting/internal/trace"
	"compactrouting/internal/walk"
)

var propertySchemes = []string{
	"simple-labeled",
	"scale-free-labeled",
	"name-independent",
	"scale-free-name-independent",
}

// buildScheme compiles one scheme over the graph through the registry,
// which carries each scheme's hop budget and stretch bound.
func buildScheme(scheme string, g *graph.Graph, a *metric.APSP, seed int64) (*schemes.Instance, error) {
	e, err := schemes.Lookup(scheme)
	if err != nil {
		return nil, err
	}
	return e.Build(g, a, 0.25, seed+2)
}

var propertyFamilies = []string{"path", "ring", "grid-holes", "geometric"}

func buildGraph(t *testing.T, family string, n int, seed int64) (*graph.Graph, *metric.APSP) {
	t.Helper()
	var (
		g   *graph.Graph
		err error
	)
	switch family {
	case "path":
		g, err = graph.Path(n, 1)
	case "ring":
		g, err = graph.Ring(n)
	case "grid-holes":
		side := 1
		for side*side < n {
			side++
		}
		g, _, err = graph.GridWithHoles(side, side, 0.2, seed)
	case "geometric":
		radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
		g, _, err = graph.RandomGeometric(n, radius, seed)
	default:
		t.Fatalf("unknown family %q", family)
	}
	if err != nil {
		t.Fatalf("build %s n=%d seed=%d: %v", family, n, seed, err)
	}
	return g, metric.NewAPSP(g)
}

// checkTraced verifies every per-route property for one traced result.
func checkTraced(t *testing.T, ctx string, g *graph.Graph, a *metric.APSP, src, dst int, bound float64, res walk.Result, tr *trace.Trace) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("%s: route failed: %v", ctx, res.Err)
	}
	// Stretch bound (the acceptance criterion: zero violations).
	if d := a.Dist(src, dst); d > 0 {
		if s := res.Cost / d; s > bound+1e-9 {
			t.Fatalf("%s: stretch %.4f exceeds bound %.4f", ctx, s, bound)
		}
	}
	// The traced walk IS the result's walk.
	if int(tr.Src) != src || int(tr.Dst) != res.Dst {
		t.Fatalf("%s: trace endpoints (%d,%d) != result (%d,%d)", ctx, tr.Src, tr.Dst, src, res.Dst)
	}
	if len(tr.Hops) != len(res.Path)-1 {
		t.Fatalf("%s: %d hop records for a %d-hop walk", ctx, len(tr.Hops), len(res.Path)-1)
	}
	for i, h := range tr.Hops {
		if int(h.From) != res.Path[i] || int(h.To) != res.Path[i+1] {
			t.Fatalf("%s: hop %d records %d->%d, path says %d->%d", ctx, i, h.From, h.To, res.Path[i], res.Path[i+1])
		}
		if w, ok := g.EdgeWeight(int(h.From), int(h.To)); !ok || w != h.Dist {
			t.Fatalf("%s: hop %d distance %v != edge weight (%v, %v)", ctx, i, h.Dist, w, ok)
		}
		if int(h.Phase) >= trace.NumPhases {
			t.Fatalf("%s: hop %d phase %d out of range", ctx, i, h.Phase)
		}
	}
	// Per-hop distances sum EXACTLY (bit-identically) to Result.Cost:
	// both are accumulated in walk order.
	if math.Float64bits(tr.Cost()) != math.Float64bits(res.Cost) {
		t.Fatalf("%s: trace cost %v (bits %x) != result cost %v (bits %x)",
			ctx, tr.Cost(), math.Float64bits(tr.Cost()), res.Cost, math.Float64bits(res.Cost))
	}
	if tr.MaxHeaderBits() != res.MaxHeaderBits {
		t.Fatalf("%s: trace max header %d != result %d", ctx, tr.MaxHeaderBits(), res.MaxHeaderBits)
	}
}

// TestTracePropertySweep is the main sweep: 20 seeds x 3 sizes over the
// four doubling families, all four schemes, with every per-route
// property checked and replay byte-determinism spot-checked.
func TestTracePropertySweep(t *testing.T) {
	const (
		numSeeds      = 20
		pairsPerGraph = 18
		minPairs      = 1000 // acceptance floor per scheme
	)
	sizes := []int{24, 48, 80}
	routed := make(map[string]int)
	for seedIdx := 0; seedIdx < numSeeds; seedIdx++ {
		seed := int64(seedIdx + 1)
		family := propertyFamilies[seedIdx%len(propertyFamilies)]
		for _, size := range sizes {
			g, a := buildGraph(t, family, size, seed)
			pairs := core.SamplePairs(g.N(), pairsPerGraph, seed*31+int64(size))
			for _, scheme := range propertySchemes {
				sc, err := buildScheme(scheme, g, a, seed)
				if err != nil {
					t.Fatalf("%s on %s n=%d seed=%d: %v", scheme, family, size, seed, err)
				}
				tr := &trace.Trace{}
				replay := &trace.Trace{}
				for i, p := range pairs {
					ctx := fmt.Sprintf("%s %s n=%d seed=%d pair=(%d,%d)", scheme, family, g.N(), seed, p[0], p[1])
					res := sc.Traced(p[0], p[1], tr)
					checkTraced(t, ctx, g, a, p[0], p[1], sc.StretchBound, res, tr)
					routed[scheme]++
					// Replay determinism: the first pairs of every cell
					// re-route and must marshal to identical bytes.
					if i < 4 {
						sc.Traced(p[0], p[1], replay)
						if !bytes.Equal(tr.Marshal(), replay.Marshal()) {
							t.Fatalf("%s: replay produced different bytes", ctx)
						}
					}
				}
			}
		}
	}
	for _, scheme := range propertySchemes {
		if routed[scheme] < minPairs {
			t.Fatalf("sweep routed only %d pairs for %s, want >= %d", routed[scheme], scheme, minPairs)
		}
	}
}

// TestTraceBytesAcrossGOMAXPROCS pins the concurrency contract: the
// concurrent simulator's traces are byte-identical to the sequential
// driver's, whether the runtime schedules on 1 or 8 CPUs.
func TestTraceBytesAcrossGOMAXPROCS(t *testing.T) {
	g, a := buildGraph(t, "geometric", 64, 5)
	pairs := core.SamplePairs(g.N(), 32, 7)
	for _, scheme := range propertySchemes {
		sc, err := buildScheme(scheme, g, a, 5)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		// Sequential reference bytes.
		want := make([][]byte, len(pairs))
		for i, p := range pairs {
			tr := &trace.Trace{}
			if res := sc.Traced(p[0], p[1], tr); res.Err != nil {
				t.Fatalf("%s pair (%d,%d): %v", scheme, p[0], p[1], res.Err)
			}
			want[i] = tr.Marshal()
		}
		for _, procs := range []int{1, 8} {
			old := runtime.GOMAXPROCS(procs)
			traces := make([]*trace.Trace, len(pairs))
			for i := range traces {
				traces[i] = &trace.Trace{}
			}
			results := sc.Run(pairs, traces)
			runtime.GOMAXPROCS(old)
			for i := range pairs {
				if results[i].Err != nil {
					t.Fatalf("%s GOMAXPROCS=%d pair (%d,%d): %v", scheme, procs, pairs[i][0], pairs[i][1], results[i].Err)
				}
				if !bytes.Equal(traces[i].Marshal(), want[i]) {
					t.Fatalf("%s GOMAXPROCS=%d pair (%d,%d): concurrent trace bytes differ from sequential",
						scheme, procs, pairs[i][0], pairs[i][1])
				}
			}
		}
	}
}

// TestTraceSparseRunTraced pins the traces-with-nil-entries contract:
// RunTraced accepts a traces slice where only some deliveries are
// traced, and the untraced ones still route correctly.
func TestTraceSparseRunTraced(t *testing.T) {
	g, a := buildGraph(t, "grid-holes", 48, 3)
	sc, err := buildScheme("simple-labeled", g, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 10, 11)
	traces := make([]*trace.Trace, len(pairs))
	for i := range traces {
		if i%2 == 0 {
			traces[i] = &trace.Trace{}
		}
	}
	results := sc.Run(pairs, traces)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("pair %d: %v", i, res.Err)
		}
		if i%2 == 0 {
			if len(traces[i].Hops) != len(res.Path)-1 {
				t.Fatalf("pair %d: traced %d hops, walked %d", i, len(traces[i].Hops), len(res.Path)-1)
			}
		} else if traces[i] != nil {
			t.Fatalf("pair %d: trace appeared from nowhere", i)
		}
	}
}

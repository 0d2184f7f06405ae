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
	"compactrouting/internal/walk"
)

func fixtures(t *testing.T, n int, seed int64) (*graph.Graph, *metric.APSP) {
	t.Helper()
	g, _, err := graph.RandomGeometric(n, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, metric.NewAPSP(g)
}

func TestFullTableConcurrentMatchesSequential(t *testing.T) {
	g, a := fixtures(t, 120, 1)
	s := baseline.NewFullTable(g, a)
	pairs := core.SamplePairs(g.N(), 300, 2)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: p[1]}
	}
	results := walk.Run[baseline.Destination](g, s, deliveries, 0)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		seq, err := s.RouteToLabel(pairs[i][0], pairs[i][1])
		if err != nil {
			t.Fatal(err)
		}
		if res.Dst != seq.Dst || math.Abs(res.Cost-seq.Cost) > 1e-9 {
			t.Fatalf("delivery %d diverged: sim (%d, %v) vs seq (%d, %v)",
				i, res.Dst, res.Cost, seq.Dst, seq.Cost)
		}
		if len(res.Path) != len(seq.Path) {
			t.Fatalf("delivery %d path lengths differ: %d vs %d", i, len(res.Path), len(seq.Path))
		}
	}
}

func TestSimpleLabeledConcurrentMatchesSequential(t *testing.T) {
	g, a := fixtures(t, 100, 3)
	s, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 300, 4)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: s.LabelOf(p[1])}
	}
	results := walk.Run[labeled.SimpleHeader](g, SimpleLabeledRouter{S: s}, deliveries, 0)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		seq, err := s.RouteToLabel(pairs[i][0], s.LabelOf(pairs[i][1]))
		if err != nil {
			t.Fatal(err)
		}
		// Paths must be IDENTICAL: concurrent execution may not change
		// any forwarding decision.
		if len(res.Path) != len(seq.Path) {
			t.Fatalf("delivery %d path lengths differ", i)
		}
		for k := range res.Path {
			if res.Path[k] != seq.Path[k] {
				t.Fatalf("delivery %d paths diverge at hop %d", i, k)
			}
		}
	}
}

func TestSingleTreeConcurrent(t *testing.T) {
	g, a := fixtures(t, 90, 5)
	s, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 200, 6)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: p[1]}
	}
	results := walk.Run[baseline.TreeHeader](g, s, deliveries, 0)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		if res.Dst != pairs[i][1] {
			t.Fatalf("delivery %d ended at %d, want %d", i, res.Dst, pairs[i][1])
		}
		if res.Cost < a.Dist(pairs[i][0], pairs[i][1])-1e-9 {
			t.Fatalf("delivery %d cost below metric distance", i)
		}
	}
}

func TestRunReportsPrepareErrors(t *testing.T) {
	g, a := fixtures(t, 30, 7)
	s := baseline.NewFullTable(g, a)
	results := walk.Run[baseline.Destination](g, s,
		[]walk.Delivery{{Src: 0, Dst: -5}, {Src: 0, Dst: 1}}, 0)
	if results[0].Err == nil {
		t.Fatal("bad destination did not error")
	}
	if results[1].Err != nil {
		t.Fatalf("good delivery failed: %v", results[1].Err)
	}
}

func TestRunHopLimit(t *testing.T) {
	g, a := fixtures(t, 40, 8)
	s := baseline.NewFullTable(g, a)
	// A hop limit of 1 must fail any route longer than one hop.
	var far [2]int
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := 0; v < g.N(); v++ {
			if _, direct := g.EdgeWeight(u, v); u != v && !direct {
				far = [2]int{u, v}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("graph is complete")
	}
	results := walk.Run[baseline.Destination](g, s,
		[]walk.Delivery{{Src: far[0], Dst: far[1]}}, 1)
	if results[0].Err == nil {
		t.Fatal("hop limit not enforced")
	}
}

func TestHeaderAccounting(t *testing.T) {
	g, a := fixtures(t, 60, 9)
	s, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	results := walk.Run[labeled.SimpleHeader](g, SimpleLabeledRouter{S: s},
		[]walk.Delivery{{Src: 0, Dst: s.LabelOf(g.N() - 1)}}, 0)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].MaxHeaderBits <= 0 {
		t.Fatal("no header accounting")
	}
}

func TestScaleFreeLabeledConcurrentMatchesSequential(t *testing.T) {
	// The paper's Theorem 1.2 scheme, running as one goroutine per node:
	// the concurrent walk must match the sequential driver hop for hop.
	g, a := fixtures(t, 90, 11)
	s, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 250, 12)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: s.LabelOf(p[1])}
	}
	results := walk.Run[labeled.SFHeader](g, s, deliveries, 64*g.N())
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		seq, err := s.RouteToLabel(pairs[i][0], s.LabelOf(pairs[i][1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Path) != len(seq.Path) {
			t.Fatalf("delivery %d path lengths differ: %d vs %d", i, len(res.Path), len(seq.Path))
		}
		for k := range res.Path {
			if res.Path[k] != seq.Path[k] {
				t.Fatalf("delivery %d paths diverge at hop %d", i, k)
			}
		}
	}
}

func TestScaleFreeLabeledConcurrentOnExponentialPath(t *testing.T) {
	// Phase B (search trees, Voronoi tails) under concurrency.
	g, err := graph.ExponentialPath(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	s, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 300, 13)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: s.LabelOf(p[1])}
	}
	results := walk.Run[labeled.SFHeader](g, s, deliveries, 64*g.N())
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		if res.Dst != pairs[i][1] {
			t.Fatalf("delivery %d ended at %d, want %d", i, res.Dst, pairs[i][1])
		}
	}
}

func TestNameIndependentConcurrentMatchesSequential(t *testing.T) {
	// The PODC 2006 headline scheme (Theorem 1.4) as goroutine-per-node:
	// name-addressed packets, hop-for-hop equal to the sequential run.
	g, a := fixtures(t, 80, 15)
	under, err := labeled.NewSimple(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := nameind.RandomNaming(g.N(), 7)
	s, err := nameind.NewSimple(g, a, nm, under, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 200, 16)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: nm.NameOf(p[1])}
	}
	results := walk.Run[nameind.NIHeader](g, NameIndependentRouter{S: s}, deliveries, 256*g.N())
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		seq, err := s.RouteToName(pairs[i][0], nm.NameOf(pairs[i][1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Path) != len(seq.Path) {
			t.Fatalf("delivery %d path lengths differ: %d vs %d", i, len(res.Path), len(seq.Path))
		}
		for k := range res.Path {
			if res.Path[k] != seq.Path[k] {
				t.Fatalf("delivery %d paths diverge at hop %d", i, k)
			}
		}
	}
}

func TestScaleFreeNameIndependentConcurrent(t *testing.T) {
	// Theorem 1.1 — the paper's headline — as goroutine-per-node
	// message passing, hop-identical to the sequential run.
	g, a := fixtures(t, 70, 17)
	under, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := nameind.RandomNaming(g.N(), 8)
	s, err := nameind.NewScaleFree(g, a, nm, under, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 150, 18)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: nm.NameOf(p[1])}
	}
	results := walk.Run[nameind.SFNIHeader](g, s, deliveries, 512*g.N())
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		seq, err := s.RouteToName(pairs[i][0], nm.NameOf(pairs[i][1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Path) != len(seq.Path) {
			t.Fatalf("delivery %d path lengths differ: %d vs %d", i, len(res.Path), len(seq.Path))
		}
		for k := range res.Path {
			if res.Path[k] != seq.Path[k] {
				t.Fatalf("delivery %d paths diverge at hop %d", i, k)
			}
		}
	}
}

package compactrouting

// One benchmark per paper artifact (Tables 1-2, Figures 1-3, plus the
// E6/E7 sweeps DESIGN.md adds), each regenerating the experiment's rows
// into io.Discard, and micro-benchmarks for the substrates. Run
//
//	go test -bench=. -benchmem
//
// cmd/routebench prints the same rows to stdout at larger sizes.

import (
	"io"
	"sync"
	"testing"

	ballpackpkg "compactrouting/internal/ballpack"
	"compactrouting/internal/exp"
	graphpkg "compactrouting/internal/graph"
	lowerboundpkg "compactrouting/internal/lowerbound"
	metricpkg "compactrouting/internal/metric"
	rnetpkg "compactrouting/internal/rnet"
	searchtreepkg "compactrouting/internal/searchtree"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *exp.Env
	benchEnvErr  error
)

func benchEnvironment(b *testing.B) *exp.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = exp.NewEnv("geometric", 128, 3, "")
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func BenchmarkTable1NameIndependent(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Table1(io.Discard, e, 0.25, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Labeled(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Table2(io.Discard, e, 0.25, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1RoutingAnatomy(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Fig1(io.Discard, e, 0.25, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2LabeledAnatomy(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Fig2(io.Discard, e, 0.25, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3LowerBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Fig3(io.Discard, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Storage(io.Discard, []int{32, 64}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpsilonSweep(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Epsilon(io.Discard, e, 150, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks ---------------------------------------------------

var (
	benchNetOnce sync.Once
	benchNet     *Network
	benchNetErr  error
)

func benchNetwork(b *testing.B) *Network {
	b.Helper()
	benchNetOnce.Do(func() {
		benchNet, benchNetErr = RandomGeometricNetwork(128, 0.18, 3)
	})
	if benchNetErr != nil {
		b.Fatal(benchNetErr)
	}
	return benchNet
}

func BenchmarkPreprocessScaleFreeLabeled(b *testing.B) {
	nw := benchNetwork(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nw.NewScaleFreeLabeled(0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessScaleFreeNameIndependent(b *testing.B) {
	nw := benchNetwork(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nw.NewScaleFreeNameIndependent(0.25, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteScaleFreeLabeled(b *testing.B) {
	nw := benchNetwork(b)
	s, err := nw.NewScaleFreeLabeled(0.25)
	if err != nil {
		b.Fatal(err)
	}
	pairs := SamplePairs(nw.N(), 256, 7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := s.Route(p[0], s.Label(p[1])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteScaleFreeNameIndependent(b *testing.B) {
	nw := benchNetwork(b)
	s, err := nw.NewScaleFreeNameIndependent(0.25, nil)
	if err != nil {
		b.Fatal(err)
	}
	pairs := SamplePairs(nw.N(), 256, 7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := s.Route(p[0], s.NameOf(p[1])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteFullTableBaseline(b *testing.B) {
	nw := benchNetwork(b)
	s, _ := nw.NewFullTable()
	pairs := SamplePairs(nw.N(), 256, 7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := s.Route(p[0], s.Label(p[1])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Ablation(io.Discard, e, 150, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPSPBuild(b *testing.B) {
	g, _, err := graphpkg.RandomGeometric(128, 0.18, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metricpkg.NewAPSP(g)
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g, _, err := graphpkg.RandomGeometric(512, 0.1, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metricpkg.Dijkstra(g, i%g.N())
	}
}

func BenchmarkPackingBuild(b *testing.B) {
	g, _, err := graphpkg.RandomGeometric(128, 0.18, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := metricpkg.NewAPSP(g)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ballpackpkg.New(a)
	}
}

func BenchmarkHierarchyBuild(b *testing.B) {
	g, _, err := graphpkg.RandomGeometric(128, 0.18, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := metricpkg.NewAPSP(g)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := rnetpkg.NewHierarchy(a, 0)
		rnetpkg.NewNettingTree(h)
	}
}

func BenchmarkSearchTreeBuildAndQuery(b *testing.B) {
	g, _, err := graphpkg.RandomGeometric(200, 0.15, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := metricpkg.NewAPSP(g)
	tr, err := searchtreepkg.New[int](a, 0, a.Diameter(), searchtreepkg.Config{
		Eps:          0.25,
		MinNetRadius: a.MinPairDistance(),
	})
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]searchtreepkg.Pair[int], len(tr.Members))
	for i, v := range tr.Members {
		pairs[i] = searchtreepkg.Pair[int]{Key: v, Data: v}
	}
	tr.Store(pairs)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, found, _ := tr.Search(tr.Members[i%len(tr.Members)]); !found {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkLowerBoundOptimalStretch(b *testing.B) {
	w := lowerboundpkg.Params{P: 24, Q: 12}.Weights()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := lowerboundpkg.OptimalStretch(w); err != nil {
			b.Fatal(err)
		}
	}
}

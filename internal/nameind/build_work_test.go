package nameind

import (
	"testing"

	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/racetest"
)

// lazyNameIndStats builds the whole name-independent stack (labeled
// Simple, then Simple over it) on a fresh lazy oracle with the default
// cache under the given GOMAXPROCS and returns the oracle's counters.
func lazyNameIndStats(t *testing.T, g *graph.Graph, eps float64, procs int) metric.LazyStats {
	t.Helper()
	var st metric.LazyStats
	gate.WithProcs(procs, func() {
		o := metric.NewLazyOracle(g)
		under, err := labeled.NewSimple(g, o, eps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSimple(g, o, RandomNaming(g.N(), 1), under, eps); err != nil {
			t.Fatal(err)
		}
		st = o.Stats()
	})
	return st
}

// treeBallSum sums, over the trees of s on the dense oracle a, the
// sizes of the two kinds of ball the level loop of searchtree.New asks
// for: B_v(rho_l) for each node v the net test at level l sees, and
// B_v(2 rho_l) for each node that joins level l >= 2 and looks for its
// parent. It is a budget, not a bound on what a lazy build settles: it
// leaves out the ball New takes around each tree's center, the
// candidate rows Nearest reads out to v, and every row the cache
// evicts and builds again.
func treeBallSum(s *Simple, a metric.Distancer, minNet float64) uint64 {
	var sum uint64
	for _, tr := range s.SearchTrees() {
		for l := 1; l < tr.NumLevels(); l++ {
			rho := tr.LevelRadius(l)
			if rho > minNet {
				for m := l; m < tr.NumLevels(); m++ {
					for _, v := range tr.Level(m) {
						sum += uint64(a.BallSize(int(v), rho))
					}
				}
			}
			if l >= 2 {
				for _, v := range tr.Level(l) {
					sum += uint64(a.BallSize(int(v), 2*rho))
				}
			}
		}
	}
	return sum
}

// TestLazyNameIndBuildWork gates the lazy backend's work on the whole
// name-independent build on power-law graphs, where a level's search
// trees overflow the default row cache from n=320 on. At GOMAXPROCS=1
// the counters are a pure function of the build and are pinned
// byte-exact. Parallel tree builds share the cache, so at GOMAXPROCS=8
// which rows are evicted, and hence every counter, depends on the
// schedule; there only the settled entries are held to a budget: the
// level loop's balls (treeBallSum, on the dense backend) plus what the
// labeled scheme alone settles. The budget is not a proven bound (see
// treeBallSum), so the test logs its margin. Over eight runs on a
// 2-vCPU VM the build settled 0.35-0.37 M of a 4.93 M budget at n=256
// and 2.80-3.16 M of 9.57 M at n=320, so at least 3x headroom; the
// parent's whole-net loop settled 33.8 M at n=320. Under the race
// detector only the n=256 case runs (racetest.Enabled).
func TestLazyNameIndBuildWork(t *testing.T) {
	const eps = 0.25
	for _, tc := range []struct {
		n    int
		want metric.LazyStats
	}{
		{256, metric.LazyStats{Hits: 259735, RowsBuilt: 4250, Settled: 368772, Evictions: 0}},
		{320, metric.LazyStats{Hits: 397074, RowsBuilt: 22347, Settled: 4455660, Evictions: 13844}},
	} {
		if racetest.Enabled && tc.n > 256 {
			continue
		}
		g, err := graph.PowerLaw(tc.n, 2, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := lazyNameIndStats(t, g, eps, 1)
		if got != tc.want {
			t.Errorf("n=%d: lazy build stats = %+v, want %+v", tc.n, got, tc.want)
		}
		par := lazyNameIndStats(t, g, eps, 8)

		dense := metric.NewAPSP(g)
		under, err := labeled.NewSimple(g, dense, eps)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSimple(g, dense, RandomNaming(g.N(), 1), under, eps)
		if err != nil {
			t.Fatal(err)
		}
		balls := treeBallSum(s, dense, dense.MinPairDistance())
		lo := metric.NewLazyOracle(g)
		if _, err := labeled.NewSimple(g, lo, eps); err != nil {
			t.Fatal(err)
		}
		lab := lo.Stats().Settled
		budget := balls + lab
		t.Logf("n=%d: GOMAXPROCS=8 settled %d of a budget of %d (%.1f%% margin)",
			tc.n, par.Settled, budget, 100*(1-float64(par.Settled)/float64(budget)))
		if par.Settled > budget {
			t.Errorf("n=%d: lazy build at GOMAXPROCS=8 settled %d entries, over the budget of tree balls %d + labeled %d = %d",
				tc.n, par.Settled, balls, lab, budget)
		}
	}
}

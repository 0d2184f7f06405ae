package labeled

import (
	"fmt"
	"testing"

	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/rnet"
)

// buildWorkGraph is the power-law graph the lazy-build work gates run
// on: the Internet-like family the lazy backend exists for.
func buildWorkGraph(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	g, err := graph.PowerLaw(n, 2, 1024, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// ringBallSum returns Σ_i Σ_{x∈Y_i} |B_x(r_i)| for a built scheme: the
// entries the center-first ring build has to read, each ball once.
func ringBallSum(s *Simple, a metric.Distancer) uint64 {
	var sum uint64
	for i := 0; i <= s.h.TopLevel(); i++ {
		radius := s.ringFactor * s.h.Radius(i) / s.eps
		for _, x := range s.h.Levels[i] {
			sum += uint64(a.BallSize(x, radius))
		}
	}
	return sum
}

// TestLazySimpleBuildWork gates the lazy backend's work on the labeled
// build. The cache budget is the default 8n rule without its 65,536
// floor, so at n=512 a level's ring balls overflow it the way they do
// at n=2048 under the default. The build must read each ring ball
// about once: settled entries stay within 5% of the ring balls' sizes
// (summed on the dense backend) plus what the hierarchy alone settles.
// The counters are a pure function of the build, so they are pinned
// byte-exact and must not move with GOMAXPROCS.
func TestLazySimpleBuildWork(t *testing.T) {
	const n, eps = 512, 0.25
	g := buildWorkGraph(t, n)
	opts := metric.LazyOpts{MaxEntries: 8 * n}
	var got metric.LazyStats
	gate.Same(t, func() []byte {
		o := metric.NewLazyOracleOpts(g, opts)
		if _, err := NewSimple(g, o, eps); err != nil {
			t.Fatal(err)
		}
		got = o.Stats()
		return fmt.Appendf(nil, "%+v", got)
	})
	want := metric.LazyStats{Hits: 722, RowsBuilt: 5854, Settled: 359745, Evictions: 0}
	if got != want {
		t.Errorf("lazy build stats = %+v, want %+v", got, want)
	}

	dense := metric.NewAPSP(g)
	ds, err := NewSimple(g, dense, eps)
	if err != nil {
		t.Fatal(err)
	}
	balls := ringBallSum(ds, dense)
	ho := metric.NewLazyOracleOpts(g, opts)
	rnet.NewNettingTree(rnet.NewHierarchy(ho, 0))
	hier := ho.Stats().Settled
	if limit := 1.05 * float64(balls+hier); float64(got.Settled) > limit {
		t.Errorf("lazy build settled %d entries, over 1.05 × (ring balls %d + hierarchy %d) = %.0f",
			got.Settled, balls, hier, limit)
	}
}

// BenchmarkLazySimpleBuild measures the whole labeled Simple build on
// power-law n=2048 on both backends. The lazy oracle is fresh per
// iteration (its construction is O(1); all of its row work is inside
// the build), the dense matrix is built once outside the timer. Run it
// with `go test ./internal/labeled -run '^$' -bench LazySimpleBuild`.
func BenchmarkLazySimpleBuild(b *testing.B) {
	const n, eps = 2048, 0.25
	g := buildWorkGraph(b, n)
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		var st metric.LazyStats
		for i := 0; i < b.N; i++ {
			o := metric.NewLazyOracle(g)
			if _, err := NewSimple(g, o, eps); err != nil {
				b.Fatal(err)
			}
			s := o.Stats()
			st.RowsBuilt += s.RowsBuilt
			st.Settled += s.Settled
			st.Evictions += s.Evictions
		}
		b.ReportMetric(float64(st.RowsBuilt)/float64(b.N), "rows/op")
		b.ReportMetric(float64(st.Settled)/float64(b.N), "settled/op")
		b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
	})
	b.Run("dense", func(b *testing.B) {
		a := metric.NewAPSP(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewSimple(g, a, eps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

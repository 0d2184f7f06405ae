package metric

import (
	"math"
	"testing"

	"compactrouting/internal/graph"
)

// benchOracle builds a geometric oracle for the ball benchmarks.
func benchOracle(tb testing.TB, n int) *APSP {
	tb.Helper()
	radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
	g, _, err := graph.RandomGeometric(n, radius, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return NewAPSP(g)
}

// benchGraph builds the n-node graph of one kernel benchmark family:
// the geometric (doubling) graph the dense tcp-zipf workload serves,
// or the Internet-like power-law graph of the lazy workload.
func benchGraph(tb testing.TB, family string, n int) *graph.Graph {
	tb.Helper()
	var g *graph.Graph
	var err error
	switch family {
	case "geometric":
		g, _, err = graph.RandomGeometric(n, 1.8*math.Sqrt(math.Log(float64(n))/float64(n)), 1)
	case "power-law":
		g, err = graph.PowerLaw(n, 2, 1024, 1)
	default:
		tb.Fatalf("unknown family %q", family)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// Package-level sinks keep the measured calls from being optimized
// away.
var (
	sinkAPSP *APSP
	sinkDist float64
)

// BenchmarkNewAPSP measures the dense backend's whole build: n kernel
// runs plus the matrix writes. Run it with
// `go test ./internal/metric -run '^$' -bench NewAPSP -benchmem`.
func BenchmarkNewAPSP(b *testing.B) {
	for _, family := range []string{"geometric", "power-law"} {
		b.Run(family+"/n2048", func(b *testing.B) {
			g := benchGraph(b, family, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAPSP = NewAPSP(g)
			}
		})
	}
}

// BenchmarkRestoreAPSP measures the dense backend's restore from its
// matrices, the metric share of a snapshot restore: every order row is
// rebuilt by sorting, with no kernel run. Run it with
// `go test ./internal/metric -run '^$' -bench RestoreAPSP -benchmem`.
func BenchmarkRestoreAPSP(b *testing.B) {
	a := NewAPSP(benchGraph(b, "geometric", 2048))
	dist, nextHop := a.Matrices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RestoreAPSP(a.N(), dist, nextHop)
		if err != nil {
			b.Fatal(err)
		}
		sinkAPSP = r
	}
}

// BenchmarkLazyDistCold measures the lazy backend's cold path: every
// iteration asks a pair never asked before, sweeping sources so the
// default cache (8 full rows) rarely holds the row, and each miss runs
// the kernel out to the target.
func BenchmarkLazyDistCold(b *testing.B) {
	g := benchGraph(b, "power-law", 2048)
	n := g.N()
	o := NewLazyOracle(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// i -> (u, v) is a bijection on the first n*n iterations.
		u, k := i%n, (i/n)%n
		sinkDist = o.Dist(u, (u+1+k)%n)
	}
}

// BenchmarkBall measures the allocating accessor the scheme
// constructors used to call per (node, level).
func BenchmarkBall(b *testing.B) {
	a := benchOracle(b, 256)
	r := a.Diameter() / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Ball(i%a.N(), r)
	}
}

// BenchmarkAppendBall measures the buffer-reusing variant; it must
// report zero allocs/op once the buffer has grown to ball size.
func BenchmarkAppendBall(b *testing.B) {
	a := benchOracle(b, 256)
	r := a.Diameter() / 4
	buf := make([]int, 0, a.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.AppendBall(buf[:0], i%a.N(), r)
	}
	_ = buf
}

func BenchmarkBallOfSize(b *testing.B) {
	a := benchOracle(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.BallOfSize(i%a.N(), 64)
	}
}

func BenchmarkAppendBallOfSize(b *testing.B) {
	a := benchOracle(b, 256)
	buf := make([]int, 0, a.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.AppendBallOfSize(buf[:0], i%a.N(), 64)
	}
	_ = buf
}

// TestAppendBallMatchesBall pins the append variants to the allocating
// ones.
func TestAppendBallMatchesBall(t *testing.T) {
	a := benchOracle(t, 64)
	buf := make([]int, 0, a.N())
	for u := 0; u < a.N(); u++ {
		r := a.RadiusOfSize(u, 1+u%a.N())
		want := a.Ball(u, r)
		buf = a.AppendBall(buf[:0], u, r)
		if len(buf) != len(want) {
			t.Fatalf("u=%d: AppendBall len %d, Ball len %d", u, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("u=%d: AppendBall[%d] = %d, want %d", u, i, buf[i], want[i])
			}
		}
		wantK := a.BallOfSize(u, 17)
		gotK := a.AppendBallOfSize(buf[:0], u, 17)
		if len(gotK) != len(wantK) {
			t.Fatalf("u=%d: AppendBallOfSize len %d, want %d", u, len(gotK), len(wantK))
		}
		for i := range wantK {
			if gotK[i] != wantK[i] {
				t.Fatalf("u=%d: AppendBallOfSize[%d] = %d, want %d", u, i, gotK[i], wantK[i])
			}
		}
	}
}

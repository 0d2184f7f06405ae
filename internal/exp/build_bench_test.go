package exp

import (
	"fmt"
	"testing"

	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
)

// Construction benchmarks for the four scheme compilers, at the two
// sizes the perf work targets. The env (graph + APSP oracle) is built
// outside the timer so b.N iterations measure table compilation only.
// Run with e.g.
//
//	go test ./internal/exp -bench BenchmarkBuild -benchtime 3x

func benchEnv(b *testing.B, n int) *Env {
	b.Helper()
	env, err := NewEnv("geometric", n, 7, "")
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func benchSizes(b *testing.B, run func(b *testing.B, env *Env)) {
	for _, n := range []int{256, 1024} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			env := benchEnv(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, env)
		})
	}
}

func BenchmarkBuildSimpleLabeled(b *testing.B) {
	benchSizes(b, func(b *testing.B, env *Env) {
		for i := 0; i < b.N; i++ {
			if _, err := labeled.NewSimple(env.G, env.A, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBuildScaleFreeLabeled(b *testing.B) {
	benchSizes(b, func(b *testing.B, env *Env) {
		for i := 0; i < b.N; i++ {
			if _, err := labeled.NewScaleFree(env.G, env.A, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBuildNameInd(b *testing.B) {
	benchSizes(b, func(b *testing.B, env *Env) {
		for i := 0; i < b.N; i++ {
			if _, _, err := build[*nameind.Simple](env, "name-independent", 0.25, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The lazy backend on power-law n=320, where a level's search
	// trees overflow the default row cache. The oracle is fresh per
	// iteration, so all of its row work is inside the build.
	b.Run("lazy-power-law/n=320", func(b *testing.B) {
		env, err := NewEnv("power-law", 320, 1, "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var st metric.LazyStats
		for i := 0; i < b.N; i++ {
			o := metric.NewLazyOracle(env.G)
			lazy := &Env{Name: env.Name, G: env.G, A: o}
			if _, _, err := build[*nameind.Simple](lazy, "name-independent", 0.25, 7); err != nil {
				b.Fatal(err)
			}
			s := o.Stats()
			st.RowsBuilt += s.RowsBuilt
			st.Settled += s.Settled
		}
		b.ReportMetric(float64(st.RowsBuilt)/float64(b.N), "rows/op")
		b.ReportMetric(float64(st.Settled)/float64(b.N), "settled/op")
	})
}

func BenchmarkBuildScaleFreeNameInd(b *testing.B) {
	benchSizes(b, func(b *testing.B, env *Env) {
		for i := 0; i < b.N; i++ {
			if _, _, err := build[*nameind.ScaleFree](env, "scale-free-name-independent", 0.25, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

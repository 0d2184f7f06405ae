package exp

import (
	"fmt"
	"testing"

	"compactrouting/internal/labeled"
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
	env, err := GeometricEnv(n, 7)
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
			if _, err := build[*nameind.Simple](env, "name-independent", 0.25, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBuildScaleFreeNameInd(b *testing.B) {
	benchSizes(b, func(b *testing.B, env *Env) {
		for i := 0; i < b.N; i++ {
			if _, err := build[*nameind.ScaleFree](env, "scale-free-name-independent", 0.25, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

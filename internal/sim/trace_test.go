package sim

import (
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/trace"
	"compactrouting/internal/walk"
)

// TestRouteOnceTracingDisabledAllocs pins the zero-overhead-when-
// disabled contract: RouteOnceTraced with a nil trace must allocate
// exactly as much as RouteOnce did before tracing existed — the path
// slice and nothing else. Every trace instruction sits behind a nil
// check, and PhaseOf (whose interface conversion boxes the header) is
// only reached on traced paths.
func TestRouteOnceTracingDisabledAllocs(t *testing.T) {
	g, a := fixtures(t, 80, 1)
	s := baseline.NewFullTable(g, a)
	pairs := core.SamplePairs(g.N(), 8, 3)

	for _, p := range pairs {
		src, dst := p[0], p[1]
		base := testing.AllocsPerRun(200, func() {
			if res := walk.RouteOnce[baseline.Destination](g, s, src, dst, 0); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
		disabled := testing.AllocsPerRun(200, func() {
			if res := walk.RouteOnceTraced[baseline.Destination](g, s, src, dst, 0, nil); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
		if disabled != base {
			t.Fatalf("pair (%d,%d): disabled tracing allocates %.1f/run, untraced baseline %.1f/run", src, dst, disabled, base)
		}
	}
}

// TestRouteOnceTracedReusesTrace pins the warm-path behavior the
// serving layer relies on: after the first traced route grows the hop
// slice, re-tracing a route of equal or shorter length allocates
// nothing beyond the untraced baseline plus the result path.
func TestRouteOnceTracedReusesTrace(t *testing.T) {
	g, a := fixtures(t, 80, 1)
	s := baseline.NewFullTable(g, a)
	p := core.SamplePairs(g.N(), 1, 3)[0]
	src, dst := p[0], p[1]

	tr := &trace.Trace{}
	walk.RouteOnceTraced[baseline.Destination](g, s, src, dst, 0, tr) // warm up the hop slice
	base := testing.AllocsPerRun(200, func() {
		walk.RouteOnce[baseline.Destination](g, s, src, dst, 0)
	})
	warm := testing.AllocsPerRun(200, func() {
		walk.RouteOnceTraced[baseline.Destination](g, s, src, dst, 0, tr)
	})
	if warm > base {
		t.Fatalf("warm traced route allocates %.1f/run, untraced %.1f/run", warm, base)
	}
}

func BenchmarkRouteOnce(b *testing.B) {
	g, a := benchFixtures(b)
	s := baseline.NewFullTable(g, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk.RouteOnce[baseline.Destination](g, s, i%g.N(), (i+7)%g.N(), 0)
	}
}

func BenchmarkRouteOnceTracedNil(b *testing.B) {
	g, a := benchFixtures(b)
	s := baseline.NewFullTable(g, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk.RouteOnceTraced[baseline.Destination](g, s, i%g.N(), (i+7)%g.N(), 0, nil)
	}
}

func BenchmarkRouteOnceTracedEnabled(b *testing.B) {
	g, a := benchFixtures(b)
	s := baseline.NewFullTable(g, a)
	tr := &trace.Trace{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk.RouteOnceTraced[baseline.Destination](g, s, i%g.N(), (i+7)%g.N(), 0, tr)
	}
}

func benchFixtures(b *testing.B) (*graph.Graph, *metric.APSP) {
	b.Helper()
	g, _, err := graph.RandomGeometric(120, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g, metric.NewAPSP(g)
}

// TestPhaseOfDefaultsToDirect pins the fallback classification for
// headers that do not implement trace.Phased.
func TestPhaseOfDefaultsToDirect(t *testing.T) {
	if got := walk.PhaseOf(plainHeader{}); got != trace.PhaseDirect {
		t.Fatalf("unclassified header phase = %v, want direct", got)
	}
	// Every registered scheme's header classifies itself (checked by
	// internal/schemes' TestRegistryConformance); spot-check two
	// mappings here.
	if got := walk.PhaseOf(baseline.TreeHeader{}); got != trace.PhaseTree {
		t.Fatalf("TreeHeader phase = %v, want tree", got)
	}
	if got := walk.PhaseOf(labeled.SFHeader{Phase: labeled.SFPhaseFinal}); got != trace.PhaseFinal {
		t.Fatalf("SFHeader final phase = %v, want final", got)
	}
}

type plainHeader struct{}

func (plainHeader) Bits() int { return 1 }

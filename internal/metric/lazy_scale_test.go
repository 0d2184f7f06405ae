package metric

import (
	"math"
	"runtime"
	"testing"

	"compactrouting/internal/graph"
	"compactrouting/internal/racetest"
)

// TestLazyNoQuadraticAllocation is the APSP-wall regression test: a
// LazyOracle at n=100,000 serving a representative query mix — a full
// eccentricity row, size- and radius-balls around scattered sources,
// point distances, and point searches (PointDist) with their landmark
// index — must stay far below the footprint of a single
// dense n×n matrix (8·n² = 80 GB for Dist alone; NewAPSP at this size
// is simply not constructible). The 1 GB ceiling is ~80× slack over
// the observed working set and ~80× under the matrix, so it trips on
// any reintroduced quadratic allocation while staying insensitive to
// GC timing. Under the race detector the size drops to 20,000 (and
// the ceiling to 256 MB — the guarded-against matrix is still 3.2 GB)
// so the instrumented run stays in budget.
func TestLazyNoQuadraticAllocation(t *testing.T) {
	n, ceiling := 100_000, uint64(1<<30)
	if racetest.Enabled {
		n, ceiling = 20_000, 256<<20
	}
	g, err := graph.PowerLaw(n, 2, 1024, 9)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	o := NewLazyOracle(g)
	// One full row (the most expensive single query), then ball sweeps
	// around strided sources at radii spanning the distance scale.
	ecc := o.Eccentricity(0)
	for u := 0; u < n; u += n / 64 {
		for _, frac := range []float64{0.01, 0.1, 0.5} {
			if got := o.BallSize(u, ecc*frac); got < 1 {
				t.Fatalf("BallSize(%d, %g) = %d", u, ecc*frac, got)
			}
		}
		if len(o.BallOfSize(u, 256)) != 256 {
			t.Fatalf("BallOfSize(%d, 256) short", u)
		}
		v := (u + n/2) % n
		d := o.Dist(u, v)
		if d <= 0 {
			t.Fatalf("Dist(%d,%d) = %v", u, v, d)
		}
		// The reverse pair asks from v, where no query above roots a
		// row, so it runs the point search; it differs from d at most
		// by summation order.
		if p := PointDist(o, v, u); math.Abs(p-d) > 1e-9*d {
			t.Fatalf("PointDist(%d,%d) = %v, Dist(%d,%d) = %v", v, u, p, u, v, d)
		}
	}
	if st := o.Stats(); st.PointSearches == 0 || st.LandmarkRows != landmarkCount+1 {
		t.Fatalf("point queries ran no search: %+v", st)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if used := after.HeapAlloc - before.HeapAlloc; used > ceiling {
		t.Fatalf("lazy oracle workload grew the heap by %d MB at n=%d; a dense matrix would need %d MB — quadratic allocation reintroduced?",
			used>>20, n, uint64(n)*uint64(n)*8>>20)
	}
	// The row cache must also have respected its budget: default is
	// max(8n, 64Ki) settled entries, never all n rows.
	if budget := defaultLazyEntries(n); o.CachedEntries() > budget {
		t.Fatalf("cache holds %d entries, budget %d", o.CachedEntries(), budget)
	}
}

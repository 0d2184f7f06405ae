package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"compactrouting"
	"compactrouting/internal/core"
	"compactrouting/internal/frame"
	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/snapshot"
)

// backendEngine builds a test engine whose network is preprocessed on
// the given distance backend.
func backendEngine(t *testing.T, backend compactrouting.Backend, schemes ...string) *Engine {
	t.Helper()
	eng, err := New(Config{
		Build: func(seed int64) (*compactrouting.Network, error) {
			return compactrouting.GenerateNetwork("grid-holes", 36, seed, backend)
		},
		Seed:    5,
		Eps:     0.25,
		Schemes: schemes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestServeBackendEquivalence pins the serving-plane half of the
// dense/lazy equivalence contract: two engines over the same graph,
// one per backend, must serve identical routes — path, cost, optimal
// distance, header bits — for every pair and scheme.
func TestServeBackendEquivalence(t *testing.T) {
	schemes := []string{"simple-labeled", "scale-free-labeled", "name-independent", "full-table"}
	dense := backendEngine(t, compactrouting.BackendDense, schemes...)
	lazy := backendEngine(t, compactrouting.BackendLazy, schemes...)
	n := dense.Graph().Nodes
	if ln := lazy.Graph().Nodes; ln != n {
		t.Fatalf("backends built different graphs: %d vs %d nodes", n, ln)
	}
	for _, name := range schemes {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst += 5 {
				dr, err := dense.Route(name, src, dst)
				if err != nil {
					t.Fatalf("dense %s %d->%d: %v", name, src, dst, err)
				}
				lr, err := lazy.Route(name, src, dst)
				if err != nil {
					t.Fatalf("lazy %s %d->%d: %v", name, src, dst, err)
				}
				if dr.Cost != lr.Cost || dr.Optimal != lr.Optimal || dr.Hops != lr.Hops ||
					dr.MaxHeaderBits != lr.MaxHeaderBits || len(dr.Path) != len(lr.Path) {
					t.Fatalf("%s %d->%d diverged: dense %+v, lazy %+v", name, src, dst, dr, lr)
				}
				for i := range dr.Path {
					if dr.Path[i] != lr.Path[i] {
						t.Fatalf("%s %d->%d path diverged at hop %d: dense %v, lazy %v",
							name, src, dst, i, dr.Path, lr.Path)
					}
				}
			}
		}
	}
}

// TestSnapshotRoundTripBothBackends is the regression test for the
// snapshot/Distancer round trip: on either backend, Snapshot →
// Encode → Decode → NewFromSnapshot must restore an engine that (a)
// runs zero scheme constructors (routed -snapshot's load-and-serve
// guarantee), and (b) serves routes identical to the engine it was
// taken from. Lazy snapshots additionally must not carry the n×n
// matrices.
func TestSnapshotRoundTripBothBackends(t *testing.T) {
	schemes := []string{"simple-labeled", "name-independent", "full-table"}
	for _, backend := range []compactrouting.Backend{compactrouting.BackendDense, compactrouting.BackendLazy} {
		t.Run(string(backend), func(t *testing.T) {
			eng := backendEngine(t, backend, schemes...)
			f, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if f.Backend != string(backend) {
				t.Fatalf("snapshot backend = %q, want %q", f.Backend, backend)
			}
			n := eng.Graph().Nodes
			wantMat := 0
			if backend == compactrouting.BackendDense {
				wantMat = n * n
			}
			if len(f.Dist) != wantMat || len(f.NextHop) != wantMat {
				t.Fatalf("%s snapshot carries %d/%d matrix entries, want %d", backend, len(f.Dist), len(f.NextHop), wantMat)
			}
			data, err := f.Encode()
			if err != nil {
				t.Fatal(err)
			}
			f2, err := snapshot.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			before := core.SchemeBuilds()
			eng2, err := NewFromSnapshot(Config{}, f2)
			if err != nil {
				t.Fatal(err)
			}
			if restored := eng2.Graph(); restored.Nodes != n {
				t.Fatalf("restored %d nodes, want %d", restored.Nodes, n)
			}
			for _, name := range schemes {
				for src := 0; src < n; src += 3 {
					for dst := 0; dst < n; dst += 7 {
						orig, err := eng.Route(name, src, dst)
						if err != nil {
							t.Fatalf("original %s %d->%d: %v", name, src, dst, err)
						}
						got, err := eng2.Route(name, src, dst)
						if err != nil {
							t.Fatalf("restored %s %d->%d: %v", name, src, dst, err)
						}
						if orig.Cost != got.Cost || orig.Optimal != got.Optimal || orig.Hops != got.Hops {
							t.Fatalf("%s %d->%d: restored route diverged: %+v vs %+v", name, src, dst, orig, got)
						}
					}
				}
			}
			if after := core.SchemeBuilds(); after != before {
				t.Fatalf("%s cold start ran %d scheme constructors", backend, after-before)
			}
		})
	}
}

// TestMetricsDistanceBlock pins the /metrics distance block: absent on
// the dense backend, present on the lazy one, where it carries the
// oracle's construction work and moves when a served route queries the
// metric.
func TestMetricsDistanceBlock(t *testing.T) {
	dense := backendEngine(t, compactrouting.BackendDense, "simple-labeled")
	if d := dense.Metrics().Distance; d != nil {
		t.Fatalf("dense engine reports a distance block: %+v", d)
	}
	body, err := json.Marshal(dense.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"distance"`) {
		t.Fatalf("dense /metrics carries a distance key: %s", body)
	}

	lazy := backendEngine(t, compactrouting.BackendLazy, "simple-labeled")
	before := lazy.Metrics().Distance
	if before == nil || before.Backend != "lazy" || before.RowsBuilt == 0 || before.Settled < before.RowsBuilt {
		t.Fatalf("lazy engine's distance block does not show the build: %+v", before)
	}
	n := lazy.Graph().Nodes
	if _, err := lazy.Route("simple-labeled", 0, n-1); err != nil {
		t.Fatal(err)
	}
	after := lazy.Metrics().Distance
	if after.Hits+after.RowsBuilt <= before.Hits+before.RowsBuilt {
		t.Fatalf("a lazy route query left the distance counters still: %+v -> %+v", before, after)
	}
	if after.CachedEntries == 0 {
		t.Fatalf("lazy oracle reports an empty row cache after serving: %+v", after)
	}
}

// TestMetricsDistancePointCounters pins the /metrics distance block
// byte-exact at every GOMAXPROCS while routes are served from several
// goroutines. A lazy simple-labeled engine on power-law n=256, whose
// row cache holds eight full rows, serves a fixed pair set with the
// route cache off: pairs a cached row holds count as hits, the rest as
// point searches. Serving installs no row, so which pairs hit is fixed
// by the build, and the search counters are sums of per-pair work.
func TestMetricsDistancePointCounters(t *testing.T) {
	g, err := graph.PowerLaw(256, 2, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	const pairs, conns = 1024, 4
	var dist DistanceSnapshot
	gate.Same(t, func() []byte {
		lazy := metric.NewLazyOracleOpts(g, metric.LazyOpts{MaxEntries: 8 * n})
		eng, err := New(Config{
			Build:   func(int64) (*compactrouting.Network, error) { return compactrouting.RestoreNetwork(g, lazy), nil },
			Seed:    1,
			Eps:     0.25,
			Schemes: []string{"simple-labeled"},
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := make([]uint64, pairs)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < pairs; i += conns {
					res := eng.RouteLite(0, (i*7)%n, (i*13+5)%n)
					if res.Status != frame.StatusOK {
						t.Errorf("pair %d: %+v", i, res)
					}
					opt[i] = math.Float64bits(res.Optimal)
				}
			}(c)
		}
		wg.Wait()
		dist = *eng.Metrics().Distance
		body, err := json.Marshal(dist)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Appendf(body, "\noptimal %x", opt)
	})
	if dist.PointSearches == 0 || dist.PointExpanded < dist.PointSearches || dist.LandmarkRows == 0 {
		t.Fatalf("served routes ran no point search: %+v", dist)
	}
}

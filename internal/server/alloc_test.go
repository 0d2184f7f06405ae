package server

import (
	"testing"

	"compactrouting"
	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// framedCycle is the serving plane's hot path exactly as handleConn
// runs it: decode a route-request payload into reused state, answer
// every pair through RouteLite, encode the response, and frame it into
// a reused output buffer.
type framedCycle struct {
	rd      bits.Reader
	w       bits.Writer
	req     frame.RouteRequest
	resp    frame.RouteResponse
	out     []byte
	payload []byte
}

func newFramedCycle(t testing.TB, pairs []frame.Pair) *framedCycle {
	t.Helper()
	fc := &framedCycle{}
	var w bits.Writer
	(&frame.RouteRequest{Scheme: 0, Pairs: pairs}).Encode(&w)
	fc.payload = append([]byte(nil), w.Bytes()...)
	return fc
}

func (fc *framedCycle) run(t testing.TB, eng *Engine) {
	if err := fc.req.DecodeInto(fc.payload, &fc.rd); err != nil {
		t.Fatal(err)
	}
	fc.resp.Results = fc.resp.Results[:0]
	for _, p := range fc.req.Pairs {
		res := eng.RouteLite(fc.req.Scheme, int(p.Src), int(p.Dst))
		if res.Status != frame.StatusOK {
			t.Fatalf("pair %+v: %+v", p, res)
		}
		fc.resp.Results = append(fc.resp.Results, res)
	}
	fc.w.Reset()
	fc.resp.Encode(&fc.w)
	var err error
	fc.out, err = frame.AppendFrame(fc.out[:0], frame.TypeRouteResponse, 1, fc.w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
}

// TestFramedRoutePathAllocs pins the framed batch route path —
// decode→route→encode — at zero heap allocations per cycle, on the
// cache-hit path AND the cache-miss path, for both a baseline and a
// labeled scheme, and on the lazy backend's cache-miss path, where the
// optimal distance comes from the point search. AllocsPerRun's warm-up
// invocation grows the reusable buffers, primes the hit-path cache and
// builds the point search's landmark index and scratch; after that,
// every cycle must touch only preallocated memory.
func TestFramedRoutePathAllocs(t *testing.T) {
	pairs := []frame.Pair{{Src: 0, Dst: 24}, {Src: 3, Dst: 17}, {Src: 24, Dst: 1}, {Src: 7, Dst: 20}}
	for _, scheme := range []string{"full-table", "simple-labeled"} {
		// Hit path: caching on; after warm-up every query is a slot hit.
		hitEng := tcpTestEngine(t, 1<<10, scheme)
		hit := newFramedCycle(t, pairs)
		if n := testing.AllocsPerRun(200, func() { hit.run(t, hitEng) }); n != 0 {
			t.Errorf("%s cache-hit framed cycle: %.1f allocs/op, want 0", scheme, n)
		}

		// Miss path: caching disabled; every query routes from scratch.
		missEng := tcpTestEngine(t, 0, scheme)
		miss := newFramedCycle(t, pairs)
		if n := testing.AllocsPerRun(200, func() { miss.run(t, missEng) }); n != 0 {
			t.Errorf("%s cache-miss framed cycle: %.1f allocs/op, want 0", scheme, n)
		}
	}

	// Lazy miss path: the same grid on the lazy backend, with the rows
	// its build cached dropped, so every optimal distance is a point
	// search.
	g, err := graph.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	lazy := metric.NewLazyOracle(g)
	lazyEng, err := New(Config{
		Build:   func(int64) (*compactrouting.Network, error) { return compactrouting.RestoreNetwork(g, lazy), nil },
		Seed:    3,
		Eps:     0.25,
		Schemes: []string{"simple-labeled"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lazy.AdvanceGeneration()
	miss := newFramedCycle(t, pairs)
	if n := testing.AllocsPerRun(200, func() { miss.run(t, lazyEng) }); n != 0 {
		t.Errorf("lazy simple-labeled cache-miss framed cycle: %.1f allocs/op, want 0", n)
	}
	if st := lazy.Stats(); st.PointSearches != 201*uint64(len(pairs)) {
		t.Errorf("lazy cache-miss cycles ran %d point searches, want one per pair: %+v", st.PointSearches, st)
	}
}

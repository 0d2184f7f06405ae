package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"compactrouting"
	"compactrouting/internal/core"
	"compactrouting/internal/frame"
)

func geometricBuild(n int) func(seed int64) (*compactrouting.Network, error) {
	return func(seed int64) (*compactrouting.Network, error) {
		radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
		return compactrouting.RandomGeometricNetwork(n, radius, seed)
	}
}

func newTestEngine(t testing.TB, schemes []string, cacheEntries int) *Engine {
	t.Helper()
	eng, err := New(Config{
		Build:        geometricBuild(80),
		Seed:         1,
		Eps:          0.25,
		Schemes:      schemes,
		CacheEntries: cacheEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestRouteMatchesPublicAPI(t *testing.T) {
	// The engine serves the exact walk the scheme's own sequential
	// router produces: same step functions, so same path and cost.
	eng := newTestEngine(t, []string{"simple-labeled", "full-table"}, 0)
	st := eng.st.Load()
	lab, err := st.nw.NewSimpleLabeled(0.25)
	if err != nil {
		t.Fatal(err)
	}
	n := st.nw.N()
	for _, p := range core.SamplePairs(n, 100, 7) {
		got, err := eng.Route("simple-labeled", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := lab.Route(p[0], lab.Label(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Path) != len(want.Path) || math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("route %v: engine (%d hops, %v) vs sequential (%d hops, %v)",
				p, got.Hops, got.Cost, len(want.Path)-1, want.Cost)
		}
		for k := range got.Path {
			if got.Path[k] != want.Path[k] {
				t.Fatalf("route %v: paths diverge at hop %d", p, k)
			}
		}
		ft, err := eng.Route("full-table", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ft.Stretch-1) > 1e-9 {
			t.Fatalf("full-table stretch %v != 1", ft.Stretch)
		}
	}
}

func TestCacheHitSecondQuery(t *testing.T) {
	eng := newTestEngine(t, []string{"full-table"}, 1024)
	first, err := eng.Route("full-table", 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	second, err := eng.Route("full-table", 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second query missed the cache")
	}
	if second.Cost != first.Cost || second.Hops != first.Hops {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}
	m := eng.Metrics()
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
}

func TestLRUEvictionBoundsEntries(t *testing.T) {
	const capEntries = 16
	eng := newTestEngine(t, []string{"full-table"}, capEntries)
	n := eng.Graph().Nodes
	routed := 0
	for s := 0; s < n && routed < 40*capEntries; s++ {
		for d := 0; d < n && routed < 40*capEntries; d++ {
			if s == d {
				continue
			}
			if _, err := eng.Route("full-table", s, d); err != nil {
				t.Fatal(err)
			}
			routed++
		}
	}
	m := eng.Metrics()
	if m.Cache.Size > capEntries {
		t.Fatalf("cache holds %d entries, capacity %d", m.Cache.Size, capEntries)
	}
	if m.Cache.Evicted == 0 {
		t.Fatal("no evictions recorded after overfilling the cache")
	}
}

func TestReloadInvalidatesCache(t *testing.T) {
	eng := newTestEngine(t, []string{"full-table"}, 1024)
	if _, err := eng.Route("full-table", 2, 30); err != nil {
		t.Fatal(err)
	}
	r, err := eng.Route("full-table", 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Fatal("warm-up query not cached")
	}
	if err := eng.Reload(99); err != nil {
		t.Fatal(err)
	}
	if g := eng.Graph(); g.Generation != 1 || g.Seed != 99 {
		t.Fatalf("reload did not swap state: %+v", g)
	}
	r, err = eng.Route("full-table", 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("cache served a pre-reload entry for the new graph")
	}
	// The route must be consistent with the NEW metric.
	if want := eng.st.Load().nw.Dist(2, 30); math.Abs(r.Optimal-want) > 1e-9 {
		t.Fatalf("post-reload Optimal %v, want %v", r.Optimal, want)
	}
}

func TestBatchOverHTTPWithRepeatHitRate(t *testing.T) {
	// Acceptance: a 1000-pair batch answers, and a repeated batch shows
	// a nonzero cache hit rate in /metrics.
	eng := newTestEngine(t, []string{"simple-labeled"}, 1<<14)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	n := eng.Graph().Nodes
	pairs := core.SamplePairs(n, 1000, 11)
	req := BatchRequest{Scheme: "simple-labeled", Pairs: pairs}

	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/route/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if resp.Summary.Count != 1000 || resp.Summary.Errors != 0 {
		t.Fatalf("batch summary %+v", resp.Summary)
	}
	if len(resp.Results) != 1000 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Summary.MeanStretch < 1-1e-9 {
		t.Fatalf("mean stretch %v < 1", resp.Summary.MeanStretch)
	}

	if code := postJSON(t, ts.URL+"/route/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("repeat batch status %d", code)
	}
	if resp.Summary.CacheHits == 0 {
		t.Fatal("repeated batch produced no cache hits")
	}

	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Cache.HitRate == 0 {
		t.Fatal("metrics report zero cache hit rate after repeated batch")
	}
	if m.BatchRoutes != 2000 {
		t.Fatalf("batch_routes %d, want 2000", m.BatchRoutes)
	}
}

func TestSchemesEndpointAccounting(t *testing.T) {
	eng := newTestEngine(t, []string{"simple-labeled", "full-table"}, 0)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	var resp SchemesResponse
	if code := getJSON(t, ts.URL+"/schemes", &resp); code != http.StatusOK {
		t.Fatalf("schemes status %d", code)
	}
	if resp.Graph.Nodes == 0 || resp.Graph.Edges == 0 {
		t.Fatalf("graph info empty: %+v", resp.Graph)
	}
	if len(resp.Schemes) != 2 {
		t.Fatalf("got %d schemes", len(resp.Schemes))
	}
	for _, si := range resp.Schemes {
		if si.LabelBits <= 0 || si.TableMaxBits <= 0 || si.TableMeanBits <= 0 {
			t.Fatalf("empty accounting for %s: %+v", si.Name, si)
		}
	}
	// Labels are the paper's ceil(log n)-bit node labels.
	wantLabel := 0
	for 1<<wantLabel < resp.Graph.Nodes {
		wantLabel++
	}
	for _, si := range resp.Schemes {
		if si.LabelBits != wantLabel {
			t.Fatalf("%s label_bits %d, want ceil(log2 %d) = %d",
				si.Name, si.LabelBits, resp.Graph.Nodes, wantLabel)
		}
	}
}

// TestNewRejectsSchemeNamesBeforeBuild: unknown and repeated scheme
// names fail before the network is built, so a typo never pays for the
// APSP, and a repeated name never compiles twice.
func TestNewRejectsSchemeNamesBeforeBuild(t *testing.T) {
	for _, names := range [][]string{
		{"simple-labeled", "no-such-scheme"},
		{"full-table", "simple-labeled", "full-table"},
	} {
		builds := 0
		_, err := New(Config{
			Build: func(seed int64) (*compactrouting.Network, error) {
				builds++
				return geometricBuild(40)(seed)
			},
			Schemes: names,
		})
		if err == nil {
			t.Fatalf("schemes %v accepted", names)
		}
		if builds != 0 {
			t.Fatalf("schemes %v: Build ran %d times before the names were rejected", names, builds)
		}
	}
}

// TestNewFromSnapshotRejectsDuplicateBlobs: snapshot files come from
// outside the program, so a file listing one scheme twice is rejected
// like a repeated Config.Schemes name.
func TestNewFromSnapshotRejectsDuplicateBlobs(t *testing.T) {
	eng := newTestEngine(t, []string{"full-table", "single-tree"}, 0)
	f, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromSnapshot(Config{}, f); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	f.Schemes = append(f.Schemes, f.Schemes[0])
	if _, err := NewFromSnapshot(Config{}, f); err == nil {
		t.Fatal("snapshot with a repeated scheme blob accepted")
	}
}

func TestBadRequests(t *testing.T) {
	eng := newTestEngine(t, []string{"full-table"}, 0)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	if code := postJSON(t, ts.URL+"/route", RouteRequest{Scheme: "nope", Src: 0, Dst: 1}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown scheme: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/route", RouteRequest{Scheme: "full-table", Src: -1, Dst: 1}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range src: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/route/batch", BatchRequest{Scheme: "full-table"}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.BadRequests == 0 {
		t.Fatal("bad requests not counted")
	}
}

func TestHammerConcurrentClients(t *testing.T) {
	// 64 concurrent clients against two schemes, mixing single routes,
	// batches and metrics scrapes — must be race-clean under -race.
	eng := newTestEngine(t, []string{"simple-labeled", "full-table"}, 4096)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	const clients = 64
	const perClient = 30
	n := eng.Graph().Nodes
	schemes := []string{"simple-labeled", "full-table"}
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pairs := core.SamplePairs(n, perClient, int64(c+1))
			scheme := schemes[c%len(schemes)]
			for i, p := range pairs {
				switch i % 10 {
				case 7: // periodic batch
					var resp BatchResponse
					code := postJSON(t, ts.URL+"/route/batch",
						BatchRequest{Scheme: scheme, Pairs: pairs[:8]}, &resp)
					if code != http.StatusOK || resp.Summary.Errors != 0 {
						errs <- fmt.Errorf("client %d: batch status %d summary %+v", c, code, resp.Summary)
						return
					}
				case 9: // periodic metrics scrape
					var m MetricsSnapshot
					if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
						errs <- fmt.Errorf("client %d: metrics status %d", c, code)
						return
					}
				default:
					var rr RouteResult
					code := postJSON(t, ts.URL+"/route",
						RouteRequest{Scheme: scheme, Src: p[0], Dst: p[1]}, &rr)
					if code != http.StatusOK {
						errs <- fmt.Errorf("client %d: route status %d", c, code)
						return
					}
					if rr.Stretch < 1-1e-9 {
						errs <- fmt.Errorf("client %d: stretch %v < 1", c, rr.Stretch)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := eng.Metrics()
	if m.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", m.InFlight)
	}
	if m.Routes == 0 || m.BatchRoutes == 0 {
		t.Fatalf("hammer recorded no traffic: %+v", m)
	}
}

func TestCacheGetPutSameKeyRace(t *testing.T) {
	// put overwrites a slot's shape and path in place under the slot
	// lock; get must read both under the same lock, so a reader never
	// sees one query's shape with another's path.
	c := newLiteCache(64)
	c.put(0, 1, 2, 0, frame.RouteResult{Hops: 1}, []int{1, 2})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if w%2 == 0 {
					hops := 1 + i%5
					c.put(0, 1, 2, 0, frame.RouteResult{Hops: int32(hops)}, make([]int, hops+1))
				} else if res, path, ok := c.get(0, 1, 2, 0, true); !ok || len(path) != int(res.Hops)+1 {
					t.Errorf("hot key: ok=%v hops=%d path len %d", ok, res.Hops, len(path))
					return
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
}

func TestSmallCacheCapacityBound(t *testing.T) {
	// Any capacity bounds the resident entries (the slot count rounds
	// down to a power of two), and every put of a new key either fills
	// an empty way, evicts a full one or is declined by the admission
	// policy. A hit right after each put keeps that way in use, so the
	// policy declines some puts.
	for _, capEntries := range []int{1, 2, 3, 5, 15} {
		c := newLiteCache(capEntries)
		puts := 20 * capEntries
		for i := 0; i < puts; i++ {
			c.put(0, i, i+1, 0, frame.RouteResult{Hops: int32(i)}, nil)
			c.get(0, i, i+1, 0, false)
		}
		st := c.stats()
		if st.size > capEntries {
			t.Errorf("capacity %d: cache holds %d entries", capEntries, st.size)
		}
		if int(st.evicted+st.declined)+st.size != puts {
			t.Errorf("capacity %d: %d evictions + %d declined + %d resident, want %d puts",
				capEntries, st.evicted, st.declined, st.size, puts)
		}
		if st.declined == 0 {
			t.Errorf("capacity %d: no put declined", capEntries)
		}
	}
}

func TestCacheMetricsCountTCPTraffic(t *testing.T) {
	// The binary plane's queries feed the one cache's counters: hit
	// rate, size and evictions are all derived from the same slots.
	eng := newTestEngine(t, []string{"full-table"}, 1024)
	for i := 0; i < 3; i++ {
		if res := eng.RouteLite(0, 3, 40); res.Status != frame.StatusOK {
			t.Fatalf("query %d: %+v", i, res)
		}
	}
	c := eng.Metrics().Cache
	want := CacheSnapshot{Hits: 2, Misses: 1, Evicted: 0, Size: 1, HitRate: 2.0 / 3}
	if c != want {
		t.Fatalf("cache snapshot %+v, want %+v", c, want)
	}
}

func TestPathQueryRefillsShapeSlot(t *testing.T) {
	// A shape-only walk stores no path. A query that wants the path
	// misses on that slot, walks with the recorder and refills it; after
	// that both kinds of query hit.
	eng := newTestEngine(t, []string{"full-table"}, 1024)
	if res := eng.RouteLite(0, 3, 40); res.Status != frame.StatusOK || res.Cached {
		t.Fatalf("shape query: %+v", res)
	}
	first, err := eng.Route("full-table", 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || len(first.Path) != first.Hops+1 || first.Path[0] != 3 || first.Path[first.Hops] != 40 {
		t.Fatalf("path query on a shape-only slot: %+v", first)
	}
	second, err := eng.Route("full-table", 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || len(second.Path) != len(first.Path) {
		t.Fatalf("refilled slot did not serve the path: %+v", second)
	}
	if res := eng.RouteLite(0, 3, 40); !res.Cached || int(res.Hops) != first.Hops {
		t.Fatalf("shape query on the refilled slot: %+v", res)
	}
	if c := eng.Metrics().Cache; c.Hits != 2 || c.Misses != 2 || c.Size != 1 || c.Evicted != 0 {
		t.Fatalf("cache counters %+v, want 2 hits, 2 misses, 1 slot, no evictions", c)
	}
}

func TestRouteCountedOncePerPlane(t *testing.T) {
	// One HTTP /route query and one TCP pair move the shared route
	// counters by the same amounts, on a miss, on a hit and on an
	// error.
	eng := newTestEngine(t, []string{"full-table"}, 1024)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()
	type counts struct{ routes, errs, lat, hit, miss uint64 }
	read := func() counts {
		m := eng.Metrics()
		return counts{m.Routes, m.RouteErrors, m.RouteLatency.Count, m.RouteLatencyHit.Count, m.RouteLatencyMiss.Count}
	}
	delta := func(q func()) counts {
		before := read()
		q()
		after := read()
		return counts{after.routes - before.routes, after.errs - before.errs,
			after.lat - before.lat, after.hit - before.hit, after.miss - before.miss}
	}
	n := eng.Graph().Nodes
	for _, c := range []struct {
		name            string
		httpSrc, tcpSrc int
		dst             int
		want            counts
	}{
		// Each plane queries its own pair, so the HTTP query does not
		// warm the cache for the TCP one.
		{"miss", 2, 3, 30, counts{routes: 1, lat: 1, miss: 1}},
		{"hit", 2, 3, 30, counts{routes: 1, lat: 1, hit: 1}},
		{"error", 2, 3, n + 5, counts{routes: 1, errs: 1, lat: 1}},
	} {
		httpDelta := delta(func() {
			postJSON(t, ts.URL+"/route", RouteRequest{Scheme: "full-table", Src: c.httpSrc, Dst: c.dst, OmitPath: true}, nil)
		})
		tcpDelta := delta(func() { eng.RouteLite(0, c.tcpSrc, c.dst) })
		if httpDelta != c.want || tcpDelta != c.want {
			t.Errorf("%s: HTTP moved %+v, TCP moved %+v, want %+v", c.name, httpDelta, tcpDelta, c.want)
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	// Body limits trip before JSON decoding buffers the request.
	eng := newTestEngine(t, []string{"full-table"}, 0)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	pairs := bytes.Repeat([]byte("[0,1],"), maxBatchBody/6+1)
	body := append([]byte(`{"scheme":"full-table","pairs":[`), pairs...)
	body = append(body[:len(body)-1], []byte("]}")...)
	resp, err := http.Post(ts.URL+"/route/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch body: status %d, want 400", resp.StatusCode)
	}
}

func TestHammerWithConcurrentReloads(t *testing.T) {
	// Queries racing graph reloads: every response must still be
	// internally consistent (valid stretch), and the engine race-clean.
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := newTestEngine(t, []string{"full-table"}, 256)
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	reloaderDone := make(chan struct{})
	go func() {
		defer close(reloaderDone)
		for seed := int64(2); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			if code := postJSON(t, ts.URL+"/reload", ReloadRequest{Seed: seed}, nil); code != http.StatusOK {
				t.Errorf("reload status %d", code)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var rr RouteResult
				code := postJSON(t, ts.URL+"/route",
					RouteRequest{Scheme: "full-table", Src: (c + i) % 60, Dst: (c*7 + i + 1) % 60}, &rr)
				// 422 is acceptable mid-reload (node range can shrink);
				// anything else is a bug.
				if code != http.StatusOK && code != http.StatusUnprocessableEntity {
					t.Errorf("client %d: status %d", c, code)
					return
				}
				if code == http.StatusOK && rr.Src != rr.Dst && rr.Stretch < 1-1e-9 {
					t.Errorf("client %d: stretch %v < 1", c, rr.Stretch)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-reloaderDone
	if eng.Metrics().Reloads == 0 {
		t.Fatal("no reloads happened during the hammer")
	}
}

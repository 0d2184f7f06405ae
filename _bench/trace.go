package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"compactrouting"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/rnet"
	"compactrouting/internal/server"
	"compactrouting/internal/sim"
	"compactrouting/internal/snapshot"
)

// replayQueries is K, the number of stream queries each per-layer
// replay pass sends through its layer.
const replayQueries = 2048

// span is one timed call at a layer boundary. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run
// ends. Times are nanoseconds since the recorder was made.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// add records a finished span and returns its id.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// begin opens a span whose end is set by end.
func (r *recorder) begin(parent int, name string) int {
	now := time.Now()
	return r.add(parent, name, now, now)
}

func (r *recorder) end(id int) float64 {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = int64(now.Sub(r.t0))
	return float64(s.End-s.Start) / 1e9
}

// checkSpans verifies the span tree: every span ends after it starts,
// every child lies inside its parent, and every span's self time (its
// duration minus the union of its children's intervals) is >= 0.
func checkSpans(spans []span) error {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] outside parent %d %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	for id, kids := range children {
		if self := spans[id-1].End - spans[id-1].Start - covered(kids); self < 0 {
			return fmt.Errorf("span %d %q has negative self time %d ns", id, spans[id-1].Name, self)
		}
	}
	return nil
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, x := range s {
		if open && x.Start <= curEnd {
			curEnd = max(curEnd, x.End)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = x.Start, x.End, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// tracedRun is the --trace 1 variant of a run: the same setup path and
// serving windows, seen through spans, plus per-layer replays.
type tracedRun struct {
	w        workload
	in       *inputs
	seed     int64
	snapPath string
	rec      *recorder
	layers   map[string]float64
	// oracle is the engine's own distance backend (the restored matrix
	// on http-restore), undecorated, for the Dist replay.
	oracle metric.Distancer
	// graph is the adjacency the replayed constructors run on.
	graph *graph.Graph
	// walk routes one pair with sim.RouteLite on the replayed scheme.
	walk func(src, dst int) sim.LiteResult
}

func newTracedRun(w workload, in *inputs, seed int64, snapPath string) *tracedRun {
	return &tracedRun{w: w, in: in, seed: seed, snapPath: snapPath, rec: newRecorder(), layers: make(map[string]float64)}
}

// timed runs fn inside a span under parent and, when layer is not
// empty, records its seconds as that per-layer metric.
func (t *tracedRun) timed(parent int, name, layer string, fn func() error) error {
	id := t.rec.begin(parent, name)
	err := fn()
	secs := t.rec.end(id)
	if layer != "" {
		t.layers[layer] = secs
	}
	return err
}

// setup replays the workload's setup through the public constructors,
// one span each, and returns the engine the run then serves from.
// Construction's calls into internal/metric go through a
// countingDistancer, switched off once the engine is built.
func (t *tracedRun) setup() (*server.Engine, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := t.rec.begin(0, "setup")
	var (
		eng *server.Engine
		err error
	)
	if t.w.restore {
		eng, err = t.setupRestore(root)
	} else {
		eng, err = t.setupBuild(root)
	}
	if err != nil {
		return nil, err
	}
	t.rec.end(root)
	runtime.ReadMemStats(&ms1)
	t.layers["setup.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	t.layers["setup.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	return eng, nil
}

func (t *tracedRun) setupBuild(root int) (*server.Engine, error) {
	var (
		g   *graph.Graph
		a   metric.Distancer
		eng *server.Engine
	)
	err := t.timed(root, "graph.build", "graph.gen_s", func() (err error) {
		g, err = buildGraph(t.in.n, t.in.edges)
		return err
	})
	if err != nil {
		return nil, err
	}
	if t.w.backend == compactrouting.BackendLazy {
		t.timed(root, "metric.NewLazyOracle", "", func() error { a = metric.NewLazyOracle(g); return nil })
	} else {
		t.timed(root, "metric.NewAPSP", "metric.apsp_s", func() error { a = metric.NewAPSP(g); return nil })
	}
	dec := newCountingDistancer(a)
	cfg := engineConfig(t.w, t.in, t.seed)
	cfg.Build = func(int64) (*compactrouting.Network, error) { return compactrouting.RestoreNetwork(g, dec), nil }
	err = t.timed(root, "server.New", "", func() (err error) {
		eng, err = server.New(cfg)
		return err
	})
	dec.stop()
	if err != nil {
		return nil, err
	}
	t.layers["metric.setup_calls"] = float64(dec.Calls())
	t.layers["metric.setup_s"] = dec.Seconds()
	if lz, ok := a.(*metric.LazyOracle); ok {
		t.layers["metric.cached_entries_setup"] = float64(lz.CachedEntries())
	}
	t.oracle, t.graph = a, g
	return eng, nil
}

func (t *tracedRun) setupRestore(root int) (*server.Engine, error) {
	var (
		f   *snapshot.File
		eng *server.Engine
	)
	err := t.timed(root, "snapshot.Load", "snapshot.load_s", func() (err error) {
		f, err = snapshot.Load(t.snapPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(t.snapPath); err == nil {
		t.layers["snapshot.bytes"] = float64(st.Size())
	}
	err = t.timed(root, "server.NewFromSnapshot", "server.restore_s", func() (err error) {
		eng, err = server.NewFromSnapshot(server.Config{CacheEntries: cacheEntries}, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	// An equal copy of the restored network for the replays (the engine
	// does not expose its own).
	nw, err := f.Network()
	if err != nil {
		return nil, err
	}
	t.oracle = nw.Distancer()
	return eng, nil
}

// tracedWindow serves the window with client-side spans on in every
// other one-second slice: one span per operation, with the frame encode
// and decode inside it on TCP. The median qps of the untraced slices
// against that of the traced ones is the tracing overhead; interleaving
// them keeps a drift in machine load out of the comparison.
func (t *tracedRun) tracedWindow(eng *server.Engine, clients []client, streams []stream, d time.Duration) window {
	root := t.rec.begin(0, "serve.traced")
	for _, c := range clients {
		if tc, ok := c.(*tcpClient); ok {
			tc.stamps = true
		}
	}
	hook := func(conn int, start, end time.Time, offset time.Duration) {
		if offset/time.Second%2 == 0 {
			return
		}
		op := t.rec.add(root, "client.op", start, end)
		if tc, ok := clients[conn].(*tcpClient); ok {
			t.rec.add(op, "frame.encode", tc.encAt[0], tc.encAt[1])
			t.rec.add(op, "frame.decode", tc.decAt[0], tc.decAt[1])
		}
	}
	wd := measure(eng, clients, streams, t.w.batch, d, hook)
	for _, c := range clients {
		if tc, ok := c.(*tcpClient); ok {
			tc.stamps = false
		}
	}
	t.rec.end(root)

	var plain, traced []float64
	for i, q := range wd.sliced().sliceQPS {
		if i%2 == 0 {
			plain = append(plain, q)
		} else {
			traced = append(traced, q)
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		t.layers["trace.qps_untraced"] = median(plain)
		t.layers["trace.qps_traced"] = median(traced)
		t.layers["trace.overhead_pct"] = 100 * (1 - median(traced)/median(plain))
	}

	// Server-side figures over the whole window (client spans do not
	// touch the server): the cache hit ratio, and the per-frame service
	// time. The server's histogram buckets (1000 to 2500 us around a
	// frame) are too coarse for a median, but their sum gives an exact
	// mean, compared with the client's mean.
	before, after := wd.metrics[0], wd.metrics[1]
	hits := after.Cache.Hits - before.Cache.Hits
	base := hits + after.Cache.Misses - before.Cache.Misses
	t.layers["server.hit_base"] = float64(base)
	if base > 0 {
		t.layers["server.hit_ratio"] = float64(hits) / float64(base)
	}
	if t.w.proto == "tcp" {
		m := histogramDeltaMean(before.TCP.FrameLatency, after.TCP.FrameLatency)
		t.layers["server.frame_mean_us"] = m
		t.layers["net.gap_us"] = mean(wd.loop.latUS()) - m
	}
	if lz, ok := t.oracle.(*metric.LazyOracle); ok {
		t.layers["metric.cached_entries_serve"] = float64(lz.CachedEntries())
	}
	return wd
}

// histogramDeltaMean returns the mean of the observations made between
// two snapshots of one server latency histogram (from its exact sum).
func histogramDeltaMean(before, after server.HistogramSnapshot) float64 {
	n := after.Count - before.Count
	if n == 0 {
		return 0
	}
	sum := after.MeanUS*float64(after.Count) - before.MeanUS*float64(before.Count)
	return sum / float64(n)
}

// finish runs the per-layer replays, checks and writes the spans, and
// returns every per-layer metric.
func (t *tracedRun) finish(eng *server.Engine, dir string, diag *diagnostics) (map[string]metricValue, error) {
	if err := t.replayConstructors(); err != nil {
		return nil, err
	}
	if err := t.replayQueries(eng); err != nil {
		return nil, err
	}
	t.rec.mu.Lock()
	spans := t.rec.spans
	t.rec.mu.Unlock()
	t.layers["trace.spans"] = float64(len(spans))
	diag.SpanCheck = "ok"
	if err := checkSpans(spans); err != nil {
		diag.SpanCheck = err.Error()
	}
	diag.SpanFile = filepath.Join(dir, "spans", fmt.Sprintf("%s-%d.json", t.w.name, t.seed))
	if err := writeSpans(diag.SpanFile, spans); err != nil {
		return nil, err
	}
	diag.LayerTags = layerTags()
	out := make(map[string]metricValue, len(layerMetrics))
	for _, l := range layerMetrics {
		out[l.name] = metricValue{t.layers[l.name], l.unit}
	}
	return out, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(spans); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// replayConstructors times the constructors the engine's build runs
// inside server.New one by one: the rnet hierarchy and netting tree,
// the labeled scheme (which builds its own hierarchy again), and the
// name-independent scheme over it. They run on the engine's dense
// matrix, or on a fresh lazy oracle so the engine's row cache keeps
// the state serving left it in. On http-restore they are replayed on
// the restored network and are not part of that workload's setup.
func (t *tracedRun) replayConstructors() error {
	root := t.rec.begin(0, "replay.constructors")
	defer t.rec.end(root)
	if t.graph == nil {
		if err := t.timed(root, "graph.build", "graph.gen_s", func() (err error) {
			t.graph, err = buildGraph(t.in.n, t.in.edges)
			return err
		}); err != nil {
			return err
		}
	}
	a := t.oracle
	if _, ok := a.(*metric.LazyOracle); ok {
		a = metric.NewLazyOracle(t.graph)
	}
	t.timed(root, "rnet.build", "rnet.build_s", func() error {
		rnet.NewNettingTree(rnet.NewHierarchy(a, 0))
		return nil
	})
	ref, err := compileReference(t.w, t.graph, a, t.seed, func(name string, fn func() error) error {
		return t.timed(root, name, name+"_s", fn)
	})
	if err != nil {
		return err
	}
	t.walk = ref.lite
	return nil
}

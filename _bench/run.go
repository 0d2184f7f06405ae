package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"compactrouting"
	"compactrouting/internal/server"
	"compactrouting/internal/snapshot"
)

// engineConfig is cmd/routed's default engine configuration, serving
// the workload's one scheme.
func engineConfig(w workload, in *inputs, seed int64) server.Config {
	return server.Config{
		Seed:         seed,
		Schemes:      []string{w.scheme},
		CacheEntries: cacheEntries,
		Build: func(int64) (*compactrouting.Network, error) {
			return compactrouting.NewNetworkOn(in.n, in.edges, w.backend)
		},
	}
}

// writeSnapshot is the snapshot role: build the engine the way a first
// `routed -snapshot` start does and save its tables to path.
func writeSnapshot(w workload, seed int64, path string) error {
	in, err := makeInputs(w, seed)
	if err != nil {
		return err
	}
	eng, err := server.New(engineConfig(w, in, seed))
	if err != nil {
		return err
	}
	f, err := eng.Snapshot()
	if err != nil {
		return err
	}
	return snapshot.Save(path, f)
}

// setupOnce takes the workload from its inputs to an engine ready to
// answer — constructors, or snapshot load plus restore — and times it.
func setupOnce(w workload, in *inputs, seed int64, snapPath string) (*server.Engine, float64, error) {
	start := time.Now()
	if w.restore {
		f, err := snapshot.Load(snapPath)
		if err != nil {
			return nil, 0, err
		}
		eng, err := server.NewFromSnapshot(server.Config{CacheEntries: cacheEntries}, f)
		return eng, time.Since(start).Seconds(), err
	}
	eng, err := server.New(engineConfig(w, in, seed))
	return eng, time.Since(start).Seconds(), err
}

// freeMemory collects garbage and returns it to the OS, so one phase's
// leftovers do not pad the next phase's footprint or timing.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func removeFile(path string) {
	os.Remove(path)
	os.Remove(path + ".tmp")
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// listener serves one engine over the workload's protocol on loopback.
type listener struct {
	addr string
	stop func()
}

func serve(w workload, eng *server.Engine) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var (
		wg       sync.WaitGroup
		once     sync.Once
		shutdown func(context.Context) error
	)
	wg.Add(1)
	if w.proto == "tcp" {
		ts := server.NewTCPServer(eng)
		shutdown = ts.Shutdown
		go func() {
			defer wg.Done()
			ts.Serve(ln)
		}()
	} else {
		hs := &http.Server{Handler: eng.Handler()}
		shutdown = hs.Shutdown
		go func() {
			defer wg.Done()
			hs.Serve(ln)
		}()
	}
	// stop is idempotent: the run stops serving before its traced
	// replay, and the deferred call covers every early return.
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdown(ctx)
			wg.Wait()
		})
	}
	return &listener{addr: ln.Addr().String(), stop: stop}, nil
}

func dial(w workload, addr string) (client, error) {
	if w.proto == "tcp" {
		return dialTCP(addr, w.scheme)
	}
	return newHTTPClient(addr, w.scheme), nil
}

func dialAll(w workload, addr string) ([]client, error) {
	var cs []client
	for i := 0; i < w.conns; i++ {
		c, err := dial(w, addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []client) {
	for _, c := range cs {
		c.close()
	}
}

// window is one measured closed-loop serving window.
type window struct {
	loop    loopResult
	cpu     time.Duration
	env     envRecord
	metrics [2]server.MetricsSnapshot // engine counters before and after
	// cpuAt samples the process CPU time once a second from the start;
	// it cuts the window into the slices sliced() reports on.
	cpuAt []cpuSample
}

type cpuSample struct {
	at, cpu time.Duration
}

// sliceStats are the window's rate and latency metrics, each the median
// over its one-second slices, so a few seconds lost to another tenant
// move them less than a whole-window figure.
type sliceStats struct {
	qps, p50, p90, cpuPerQuery float64
	sliceQPS                   []float64
}

func (wd window) sliced() sliceStats {
	var qps, p50, p90, cpq []float64
	ops := append([]opRecord(nil), wd.loop.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	k := 0
	for s := 1; s < len(wd.cpuAt); s++ {
		lo, hi := wd.cpuAt[s-1], wd.cpuAt[s]
		var answered int
		var lat []float64
		for ; k < len(ops) && ops[k].end <= hi.at; k++ {
			answered += ops[k].answered
			lat = append(lat, ops[k].latUS)
		}
		if answered == 0 {
			continue
		}
		sort.Float64s(lat)
		qps = append(qps, float64(answered)/(hi.at-lo.at).Seconds())
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
		cpq = append(cpq, float64((hi.cpu-lo.cpu).Microseconds())/float64(answered))
	}
	return sliceStats{qps: median(qps), p50: median(p50), p90: median(p90), cpuPerQuery: median(cpq), sliceQPS: qps}
}

// measure runs one closed-loop window after a forced GC, recording the
// process CPU time (in total and once a second) and the machine's
// contention around it.
func measure(eng *server.Engine, clients []client, streams []stream, batch int, d time.Duration, hook opHook) window {
	runtime.GC()
	var wd window
	wd.metrics[0] = eng.Metrics()
	ticks0, cpu0 := readCPUTicks(), cpuTime()
	start := time.Now()
	wd.cpuAt = []cpuSample{{0, cpu0}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				wd.cpuAt = append(wd.cpuAt, cpuSample{now.Sub(start), cpuTime()})
			case <-stop:
				return
			}
		}
	}()
	wd.loop = closedLoop(clients, streams, batch, start, d, hook)
	close(stop)
	<-sampled
	wd.cpu = cpuTime() - cpu0
	wd.env = newEnvRecord(ticks0, readCPUTicks(), wd.cpu, wd.loop.wall)
	wd.metrics[1] = eng.Metrics()
	return wd
}

// endToEndMetrics are the metrics a run reports with --trace 0, in
// BENCHMARK.json order. error_rate is reported as its complement
// ok_rate, which is never 0 (error_rate, 0 on a healthy run, is in the
// diagnostics record).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"cpu_us_per_query", "us"},
	{"ok_rate", "ratio"},
	{"peak_rss_mb", "MB"},
	{"serve_heap_mb", "MB"},
	{"stretch_mean", "ratio"},
	{"table_bits_max", "bits"},
}

// diagnostics is the record printed before the result line.
type diagnostics struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	Nodes        int               `json:"nodes"`
	Edges        int               `json:"edges"`
	SetupReps    []float64         `json:"setup_s_reps,omitempty"`
	Samples      int               `json:"latency_samples"`
	SliceQPS     []float64         `json:"slice_qps,omitempty"`
	ErrorRate    float64           `json:"error_rate"`
	StretchBound float64           `json:"stretch_bound"`
	Verification [2]verification   `json:"verification"`
	Env          envRecord         `json:"env"`
	SpanFile     string            `json:"span_file,omitempty"`
	SpanCheck    string            `json:"span_check,omitempty"`
	LayerTags    map[string]string `json:"per_layer_tags,omitempty"`
}

func runWorkload(w workload, seed int64, seconds int, traced bool, dir string) (*result, *diagnostics, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, nil, err
	}
	diag := &diagnostics{Workload: w.name, Seed: seed, Traced: traced, Nodes: in.n, Edges: len(in.edges)}
	ref, err := referenceAnswers(w, seed)
	if err != nil {
		return nil, nil, err
	}
	diag.StretchBound = ref.Bound
	snapPath := ""
	if w.restore {
		snapPath = filepath.Join(dir, fmt.Sprintf("%s-%d.snap", w.name, seed))
		if _, err := child("snapshot", w, seed, "--snapshot", snapPath); err != nil {
			return nil, nil, err
		}
		defer removeFile(snapPath)
	}
	freeMemory()

	var (
		eng *server.Engine
		tr  *tracedRun
	)
	if traced {
		tr = newTracedRun(w, in, seed, snapPath)
		if eng, err = tr.setup(); err != nil {
			return nil, nil, err
		}
	} else {
		for i := 0; i < setupReps; i++ {
			eng = nil
			freeMemory()
			var secs float64
			if eng, secs, err = setupOnce(w, in, seed, snapPath); err != nil {
				return nil, nil, err
			}
			diag.SetupReps = append(diag.SetupReps, secs)
		}
	}
	freeMemory()
	serveHeap := heapMB()

	ln, err := serve(w, eng)
	if err != nil {
		return nil, nil, err
	}
	defer ln.stop()
	clients, err := dialAll(w, ln.addr)
	if err != nil {
		return nil, nil, err
	}
	defer func() { closeAll(clients) }()
	if diag.Verification[0], err = verify(clients[0], in.sample, w.batch, ref); err != nil {
		return nil, nil, fmt.Errorf("verification before serving: %w", err)
	}
	streams := make([]stream, w.conns)
	for i := range streams {
		streams[i] = newStream(w, in.n, seed, i)
	}
	warm := max(time.Second, time.Duration(seconds)*time.Second/5)
	closedLoop(clients, streams, w.batch, time.Now(), warm, nil)

	var win window
	if traced {
		win = tr.tracedWindow(eng, clients, streams, time.Duration(seconds)*time.Second)
	} else {
		win = measure(eng, clients, streams, w.batch, time.Duration(seconds)*time.Second, nil)
	}
	if diag.Verification[1], err = verify(clients[0], in.sample, w.batch, ref); err != nil {
		return nil, nil, fmt.Errorf("verification after serving: %w", err)
	}
	closeAll(clients)
	clients = nil
	ln.stop()

	attempted, failed := win.loop.attempted, win.loop.failed
	if attempted == 0 {
		return nil, nil, errors.New("no operation completed in the timed window")
	}
	diag.Samples = len(win.loop.ops)
	diag.ErrorRate = float64(failed) / float64(attempted)
	diag.Env = win.env
	correct := diag.Verification[0].ok() && diag.Verification[1].ok()
	res := &result{Attempted: attempted, Failed: failed}

	if traced {
		layers, err := tr.finish(eng, dir, diag)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = layers
		correct = correct && diag.SpanCheck == "ok"
	} else {
		sl := win.sliced()
		diag.SliceQPS = sl.sliceQPS
		values := map[string]float64{
			"setup_s":          median(diag.SetupReps),
			"qps":              sl.qps,
			"p50_us":           sl.p50,
			"p90_us":           sl.p90,
			"cpu_us_per_query": sl.cpuPerQuery,
			"ok_rate":          float64(attempted-failed) / float64(attempted),
			"peak_rss_mb":      peakRSSMB(),
			"serve_heap_mb":    serveHeap,
			"stretch_mean":     diag.Verification[0].StretchMean,
			"table_bits_max":   float64(eng.Schemes()[0].TableMaxBits),
		}
		res.Metrics = make(map[string]metricValue, len(endToEndMetrics))
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	}
	res.Correct = correct
	return res, diag, nil
}

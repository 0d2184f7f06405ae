// Package server is the serving layer of the repository: it compiles a
// set of routing schemes over one network ONCE and then answers
// route/stretch queries concurrently, the preprocessing/query split
// compact routing is designed around.
//
// The package is layered (see DESIGN.md §server architecture):
//
//	handlers (HTTP/JSON) --\
//	                        >--  Engine.route  ->  route cache (direct-mapped slots)
//	TCP frames ------------/          |
//	                          one walker per scheme (internal/schemes):
//	                          walk.Walk over the scheme's walk.Router
//
// Every query on either plane goes through Engine.route, and every
// scheme is driven as a walk.Router — the same
// pure (table, header) step functions validated by the concurrent
// walk.Run — so a served route is byte-identical to the scheme's
// analyzed walk. The engine is race-clean: scheme tables are immutable
// after compilation, per-query state lives in the packet header, and
// reload swaps the whole immutable state atomically.
package server

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compactrouting"
	"compactrouting/internal/core"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/frame"
	"compactrouting/internal/metric"
	"compactrouting/internal/par"
	"compactrouting/internal/schemes"
	"compactrouting/internal/trace"
	"compactrouting/internal/walk"
)

// SchemeNames are the schemes the engine can compile, in report order:
// the registry's (internal/schemes).
var SchemeNames = schemes.Names()

// Config parameterizes an Engine.
type Config struct {
	// Build constructs the network for a given seed; called at startup
	// and again on every reload. Required.
	Build func(seed int64) (*compactrouting.Network, error)
	// Seed is the initial Build seed (seed+2 also draws the
	// name-independent namings).
	Seed int64
	// Eps is the stretch parameter; clamped per scheme to its registry
	// cap. Zero selects 0.25.
	Eps float64
	// Schemes to compile; nil compiles all of SchemeNames. Unknown and
	// repeated names are rejected before the network is built.
	Schemes []string
	// CacheEntries bounds the route cache (<= 0 disables caching).
	CacheEntries int
	// Workers bounds the batch fan-out pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Chaos, when non-nil, injects per-hop packet loss into every served
	// route (with source-side retries) so the daemon's degradation under
	// faults can be observed live on /metrics.
	Chaos *ChaosParams
	// TraceSample, when > 0, runs every Nth route query traced and folds
	// the per-phase detour decomposition into /metrics (counter-based:
	// under sequential load the sampled request set is a pure function of
	// request order). 0 disables sampling.
	TraceSample int
	// TraceHopCap bounds the hop records echoed in a ?trace=1 response
	// (the summary always covers the full walk). 0 selects
	// DefaultTraceHopCap; negative means no cap.
	TraceHopCap int
}

// DefaultTraceHopCap is the default bound on hop records per ?trace=1
// response.
const DefaultTraceHopCap = 512

// ChaosParams configures the daemon's fault injection (routed -chaos).
type ChaosParams struct {
	// Loss is the per-hop drop probability in [0, 1].
	Loss float64
	// Seed keys the deterministic fault draws (0 uses Config.Seed).
	Seed int64
	// MaxAttempts bounds transmissions per query; <= 0 uses the
	// faultsim default policy's attempts.
	MaxAttempts int
}

// chaosRuntime is the compiled injection state shared by every scheme.
type chaosRuntime struct {
	in  *faultsim.Injector
	rel faultsim.Reliability
	seq atomic.Uint64 // per-query delivery ids: each query gets fresh draws
}

func newChaosRuntime(p *ChaosParams, fallbackSeed int64) *chaosRuntime {
	if p == nil {
		return nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = fallbackSeed
	}
	rel := faultsim.DefaultReliability
	if p.MaxAttempts > 0 {
		rel.MaxAttempts = p.MaxAttempts
	}
	return &chaosRuntime{
		in:  faultsim.NewInjector(faultsim.FaultPlan{Seed: seed, Loss: p.Loss}),
		rel: rel,
	}
}

// RouteResult is one answered route query. Cached is set per response;
// all other fields are immutable once computed and may be shared
// between responses via the cache.
type RouteResult struct {
	Scheme        string  `json:"scheme"`
	Src           int     `json:"src"`
	Dst           int     `json:"dst"`
	Path          []int   `json:"path,omitempty"`
	Hops          int     `json:"hops"`
	Cost          float64 `json:"cost"`
	Optimal       float64 `json:"optimal"`
	Stretch       float64 `json:"stretch"`
	MaxHeaderBits int     `json:"max_header_bits"`
	Cached        bool    `json:"cached"`
	// Attempts and Drops report the reliability layer's work when the
	// engine runs with fault injection (zero otherwise).
	Attempts int `json:"attempts,omitempty"`
	Drops    int `json:"drops,omitempty"`
	// Trace is the per-hop execution trace, present only on ?trace=1
	// queries (hop log capped by Config.TraceHopCap). Never cached.
	Trace *trace.Wire `json:"trace,omitempty"`
}

// SchemeInfo is the GET /schemes accounting for one compiled scheme,
// with sizes in bits of the actual serialization (internal/bits).
type SchemeInfo struct {
	Name          string  `json:"name"`
	Kind          string  `json:"kind"` // labeled | name-independent | baseline
	LabelBits     int     `json:"label_bits"`
	TableMaxBits  int     `json:"table_max_bits"`
	TableMeanBits float64 `json:"table_mean_bits"`
	TableTotal    int     `json:"table_total_bits"`
	BuildMillis   float64 `json:"build_ms"`
}

// GraphInfo describes the currently served network.
type GraphInfo struct {
	Nodes              int     `json:"nodes"`
	Edges              int     `json:"edges"`
	Seed               int64   `json:"seed"`
	Generation         uint64  `json:"generation"`
	Diameter           float64 `json:"diameter"`
	NormalizedDiameter float64 `json:"normalized_diameter"`
}

// scheme is one compiled scheme and its accounting.
type scheme struct {
	info SchemeInfo
	// inst holds the concrete scheme the snapshot plane serializes and
	// its walker.
	inst *schemes.Instance
}

// walked is one bound walk's outcome: its shape, plus what the query
// asked for beyond it.
type walked struct {
	walk.LiteResult
	// path is the node sequence; nil unless a path or trace was asked
	// for (or the engine injects faults).
	path []int
	// attempts and drops report the reliability layer's work under
	// fault injection (zero otherwise).
	attempts, drops int
}

// state is the engine's immutable-after-build world; reload builds a
// fresh one and swaps the pointer.
type state struct {
	nw   *compactrouting.Network
	seed int64
	gen  uint64
	// list holds the schemes in compile order: the binary protocol
	// addresses them by index, and index maps names onto it.
	list  []*scheme
	order []string
	index map[string]int
}

func newState(nw *compactrouting.Network, seed int64, gen uint64) *state {
	return &state{nw: nw, seed: seed, gen: gen, index: make(map[string]int)}
}

// add appends a compiled scheme in compile order.
func (st *state) add(name string, s *scheme) {
	st.index[name] = len(st.list)
	st.list = append(st.list, s)
	st.order = append(st.order, name)
}

// schemeIndex returns the compile-order index of a scheme name, or -1.
func (st *state) schemeIndex(name string) int {
	if i, ok := st.index[name]; ok {
		return i
	}
	return -1
}

// Engine owns the compiled schemes, the route cache and the metrics.
// All methods are safe for concurrent use.
type Engine struct {
	cfg Config
	// entries are cfg.Schemes' registry rows, in compile order.
	entries []schemes.Entry
	// cache is the route cache of both planes: direct-mapped value
	// slots, no allocation on a shape-only hit or miss (nil when
	// caching is disabled).
	cache       *liteCache
	met         *metrics
	workers     int
	chaos       *chaosRuntime // nil when fault injection is off
	traceSample int           // sample every Nth route traced; 0 = off
	traceHopCap int           // hop records per ?trace=1 response; <= 0 = no cap
	traceSeq    atomic.Uint64 // route counter driving the 1-in-N sampler
	st          atomic.Pointer[state]
	reload      sync.Mutex // serializes Reload, not queries
}

// New builds the network via cfg.Build(cfg.Seed) and compiles the
// configured schemes.
func New(cfg Config) (*Engine, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("server: Config.Build is required")
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.25
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = SchemeNames
	}
	entries, err := schemes.Resolve(cfg.Schemes)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hopCap := cfg.TraceHopCap
	if hopCap == 0 {
		hopCap = DefaultTraceHopCap
	}
	e := newEngine(cfg, entries, workers, hopCap)
	st, err := e.build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	e.st.Store(st)
	return e, nil
}

// newEngine assembles the engine shell shared by New and
// NewFromSnapshot (everything but the serving state).
func newEngine(cfg Config, entries []schemes.Entry, workers, hopCap int) *Engine {
	return &Engine{
		cfg:         cfg,
		entries:     entries,
		cache:       newLiteCache(cfg.CacheEntries),
		met:         newMetrics(cfg.Schemes),
		workers:     workers,
		chaos:       newChaosRuntime(cfg.Chaos, cfg.Seed),
		traceSample: cfg.TraceSample,
		traceHopCap: hopCap,
	}
}

// build constructs a full state: network plus every configured scheme.
func (e *Engine) build(seed int64, gen uint64) (*state, error) {
	nw, err := e.cfg.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("server: build network: %w", err)
	}
	st := newState(nw, seed, gen)
	// Schemes compile independently (shared graph/oracle are read-only),
	// so the whole set builds in parallel on startup and /reload; the
	// ordered MapErr keeps compile order — and any error — identical to
	// the serial loop it replaced.
	compiled, err := par.MapErr(len(e.entries), func(i int) (*scheme, error) {
		entry := e.entries[i]
		start := time.Now()
		inst, err := entry.Build(nw.Graph(), nw.Distancer(), e.cfg.Eps, seed+2)
		if err != nil {
			return nil, fmt.Errorf("server: compile %s: %w", entry.Name(), err)
		}
		return newScheme(inst, nw.N(), float64(time.Since(start).Microseconds())/1000), nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range e.cfg.Schemes {
		st.add(name, compiled[i])
	}
	return st, nil
}

// newScheme wraps a built or snapshot-restored instance with its
// accounting.
func newScheme(inst *schemes.Instance, n int, buildMillis float64) *scheme {
	tb := core.Tables(inst.TableBits, n)
	return &scheme{
		info: SchemeInfo{
			Name:          inst.Entry.Name(),
			Kind:          inst.Entry.Kind(),
			LabelBits:     inst.LabelBits,
			TableMaxBits:  tb.MaxBits,
			TableMeanBits: tb.MeanBits,
			TableTotal:    tb.TotalBits,
			BuildMillis:   buildMillis,
		},
		inst: inst,
	}
}

// recorded runs one walk that records more than its shape: the path,
// the hop log when tr is non-nil, and under fault injection a faultsim
// delivery with a fresh delivery id, so each query draws its own
// faults. It runs the same walk.Walk hop loop as the shape-only
// Walker.Lite, so its route is byte-identical; only failures read
// differently: a shape-only walk returns the step function's error
// bare, while a recorded walk names the node it happened at.
func (e *Engine) recorded(inst *schemes.Instance, src, dst int, tr *trace.Trace) walked {
	if ch := e.chaos; ch != nil {
		res := inst.Deliver(src, dst, ch.in, ch.rel, ch.seq.Add(1), tr)
		w := walked{LiteResult: shape(res.Sim), path: res.Sim.Path, attempts: res.Attempts, drops: res.Drops}
		if !res.Delivered && w.Err == nil {
			w.Err = fmt.Errorf("delivery failed after %d attempts (%d packets dropped)", res.Attempts, res.Drops)
		}
		return w
	}
	res := inst.Traced(src, dst, tr)
	return walked{LiteResult: shape(res), path: res.Path}
}

// shape reduces a path-carrying result to its shape.
func shape(res walk.Result) walk.LiteResult {
	return walk.LiteResult{Dst: res.Dst, Hops: len(res.Path) - 1, MaxHeaderBits: res.MaxHeaderBits, Cost: res.Cost, Err: res.Err}
}

// Route answers one query, consulting the cache first. The result is
// returned by value so callers may set Cached without racing the cached
// copy; Path is shared and must not be mutated.
func (e *Engine) Route(schemeName string, src, dst int) (RouteResult, error) {
	return e.answer(schemeName, src, dst, true, false)
}

// RouteTraced answers one query with its full execution trace attached
// (RouteResult.Trace, hop log capped by Config.TraceHopCap). Traced
// queries always execute the route — the cache is read-bypassed so the
// hop log describes a real walk — but the computed result still feeds
// the cache for later untraced queries.
func (e *Engine) RouteTraced(schemeName string, src, dst int) (RouteResult, error) {
	return e.answer(schemeName, src, dst, true, true)
}

// sampleTrace implements the deterministic 1-in-N sampler: route
// queries are numbered by an atomic counter and every Nth one runs
// traced. Under sequential load the sampled set is a pure function of
// request order (the 1st, N+1st, 2N+1st, ... queries); concurrent
// load keeps the exact 1/N rate but the assignment follows arrival
// order at the counter.
func (e *Engine) sampleTrace() bool {
	if e.traceSample <= 0 {
		return false
	}
	return (e.traceSeq.Add(1)-1)%uint64(e.traceSample) == 0
}

// route answers one query on either plane — validation, the cache, the
// bound walker and the per-route metrics, counted here and nowhere
// else. It returns the wire shape (Status says whether and why it
// failed), the walk, and the trace when the query was traced.
//
// A shape-only query (no path, no trace, no fault injection) touches
// only preallocated memory. A query that wants a path hits only a slot
// that holds one; otherwise it walks with the path recorder and refills
// the slot. Traced queries skip reading the cache but still fill it;
// fault-injected queries bypass it entirely, since every query draws
// its own faults.
//
//determinlint:hotpath
func (e *Engine) route(st *state, idx, src, dst int, wantPath, wantTrace bool) (res frame.RouteResult, w walked, tr *trace.Trace) {
	start := time.Now()
	n := st.nw.N()
	switch {
	case idx < 0 || idx >= len(st.list):
		res.Status = frame.StatusBadScheme
	case src < 0 || src >= n || dst < 0 || dst >= n:
		res.Status = frame.StatusBadPair
	default:
		res, w, tr = e.walk(st, idx, src, dst, wantPath, wantTrace)
	}
	elapsed := time.Since(start)
	e.met.routes.Add(1)
	e.met.routeLatency.Observe(elapsed)
	switch {
	case res.Status != frame.StatusOK:
		e.met.routeErrors.Add(1)
	case res.Cached:
		e.met.routeLatencyHit.Observe(elapsed)
	default:
		e.met.routeLatencyMiss.Observe(elapsed)
	}
	return res, w, tr
}

// walk serves one validated query from the cache or the bound walker.
//
//determinlint:hotpath
func (e *Engine) walk(st *state, idx, src, dst int, wantPath, wantTrace bool) (res frame.RouteResult, w walked, tr *trace.Trace) {
	sampled := e.sampleTrace()
	traced := wantTrace || sampled
	cache := e.cache
	if e.chaos != nil {
		cache = nil
	}
	if cache != nil && !traced {
		if hit, path, ok := cache.get(idx, src, dst, st.gen, wantPath); ok {
			hit.Cached = true
			return hit, walked{path: path}, nil
		}
	}
	if traced {
		//determinlint:allow hotpath a trace is allocated only for traced queries, which the zero-alloc configuration never runs
		tr = &trace.Trace{}
	}
	if inst := st.list[idx].inst; e.chaos == nil && !wantPath && tr == nil {
		w = walked{LiteResult: inst.Lite(src, dst)}
	} else {
		//determinlint:allow hotpath a recorded walk (path, trace or faults) allocates; the zero-alloc configuration takes only Lite
		w = e.recorded(inst, src, dst, tr)
	}
	if e.chaos != nil {
		e.met.observeChaos(w)
	}
	if w.Err != nil {
		return frame.RouteResult{Status: frame.StatusRouteFailed}, w, tr
	}
	opt := st.nw.Dist(src, dst)
	res = frame.RouteResult{
		Status:        frame.StatusOK,
		Hops:          int32(w.Hops),
		MaxHeaderBits: int32(w.MaxHeaderBits),
		Cost:          w.Cost,
		Optimal:       opt,
	}
	e.met.observeRoute(st.order[idx], stretch(w.Cost, opt), w.Hops, w.MaxHeaderBits)
	if sampled {
		e.met.observeTrace(tr)
	}
	if cache != nil {
		// The slot never carries a trace: slots are shared between
		// responses, and a trace belongs to the query that asked.
		cache.put(idx, src, dst, st.gen, res, w.path)
	}
	return res, w, tr
}

// answer is the HTTP/JSON result builder every HTTP entry point
// shares: it runs the query through route and dresses the outcome as a
// RouteResult, or as the error the handlers report.
func (e *Engine) answer(schemeName string, src, dst int, wantPath, wantTrace bool) (RouteResult, error) {
	st := e.st.Load()
	res, w, tr := e.route(st, st.schemeIndex(schemeName), src, dst, wantPath, wantTrace)
	switch res.Status {
	case frame.StatusOK:
	case frame.StatusBadScheme:
		return RouteResult{}, fmt.Errorf("unknown scheme %q (have %v)", schemeName, st.order)
	case frame.StatusBadPair:
		return RouteResult{}, fmt.Errorf("pair (%d, %d) out of range [0, %d)", src, dst, st.nw.N())
	default:
		return RouteResult{}, fmt.Errorf("route %d -> %d: %w", src, dst, w.Err)
	}
	out := RouteResult{
		Scheme:        schemeName,
		Src:           src,
		Dst:           dst,
		Path:          w.path,
		Hops:          int(res.Hops),
		Cost:          res.Cost,
		Optimal:       res.Optimal,
		Stretch:       stretch(res.Cost, res.Optimal),
		MaxHeaderBits: int(res.MaxHeaderBits),
		Cached:        res.Cached,
		Attempts:      w.attempts,
		Drops:         w.drops,
	}
	if wantTrace {
		out.Trace = tr.ToWire(res.Optimal, e.traceHopCap)
	}
	return out, nil
}

func stretch(cost, opt float64) float64 {
	if opt == 0 {
		return 1
	}
	return cost / opt
}

// BatchSummary aggregates one RouteBatch call.
type BatchSummary struct {
	Count       int     `json:"count"`
	Errors      int     `json:"errors"`
	CacheHits   int     `json:"cache_hits"`
	TotalHops   int     `json:"total_hops"`
	MeanStretch float64 `json:"mean_stretch"`
	MaxStretch  float64 `json:"max_stretch"`
}

// RouteBatch fans the pairs out over the bounded worker pool and
// returns per-pair results (index-aligned with pairs; failed queries
// have an empty Scheme and count as summary errors).
func (e *Engine) RouteBatch(schemeName string, pairs [][2]int) ([]RouteResult, BatchSummary) {
	return e.routeBatch(schemeName, pairs, true)
}

// routeBatch is RouteBatch with the path optional: without paths every
// pair takes the shape-only route the TCP plane answers with.
func (e *Engine) routeBatch(schemeName string, pairs [][2]int, wantPath bool) ([]RouteResult, BatchSummary) {
	results := make([]RouteResult, len(pairs))
	errs := make([]error, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				results[i], errs[i] = e.answer(schemeName, pairs[i][0], pairs[i][1], wantPath, false)
			}
		}()
	}
	wg.Wait()

	var sum BatchSummary
	sum.Count = len(pairs)
	var stretchSum float64
	routed := 0
	for i := range results {
		if errs[i] != nil {
			sum.Errors++
			continue
		}
		routed++
		if results[i].Cached {
			sum.CacheHits++
		}
		sum.TotalHops += results[i].Hops
		stretchSum += results[i].Stretch
		if results[i].Stretch > sum.MaxStretch {
			sum.MaxStretch = results[i].Stretch
		}
	}
	if routed > 0 {
		sum.MeanStretch = stretchSum / float64(routed)
	}
	return results, sum
}

// Reload rebuilds the network with the given seed, recompiles every
// scheme and atomically swaps the serving state. The new state carries
// a new generation, which invalidates every cached route: cache keys
// include the generation, so entries computed against the old graph
// are unreachable and are overwritten as new routes land in their
// slots. In-flight queries
// finish against the old state.
func (e *Engine) Reload(seed int64) error {
	e.reload.Lock()
	defer e.reload.Unlock()
	old := e.st.Load()
	st, err := e.build(seed, old.gen+1)
	if err != nil {
		return err
	}
	e.st.Store(st)
	e.met.reloads.Add(1)
	return nil
}

// Graph describes the current network.
func (e *Engine) Graph() GraphInfo {
	st := e.st.Load()
	return GraphInfo{
		Nodes:              st.nw.N(),
		Edges:              st.nw.M(),
		Seed:               st.seed,
		Generation:         st.gen,
		Diameter:           st.nw.Diameter(),
		NormalizedDiameter: st.nw.NormalizedDiameter(),
	}
}

// Schemes lists the compiled schemes' accounting in compile order.
func (e *Engine) Schemes() []SchemeInfo {
	st := e.st.Load()
	out := make([]SchemeInfo, 0, len(st.order))
	for _, s := range st.list {
		out = append(out, s.info)
	}
	return out
}

// Metrics snapshots the live counters.
func (e *Engine) Metrics() MetricsSnapshot {
	st := e.st.Load()
	snap := e.met.snapshot(e.cache)
	if e.chaos != nil {
		snap.Chaos.Enabled = true
		snap.Chaos.Loss = e.chaos.in.Plan().Loss
		snap.Chaos.MaxAttempts = e.chaos.rel.MaxAttempts
	}
	snap.Generation = st.gen
	snap.Schemes = append([]string(nil), st.order...)
	sort.Strings(snap.Schemes)
	snap.Trace.SampleEvery = e.traceSample
	if lz, ok := st.nw.Distancer().(*metric.LazyOracle); ok {
		ls := lz.Stats()
		snap.Distance = &DistanceSnapshot{
			Backend:       string(compactrouting.BackendLazy),
			Hits:          ls.Hits,
			RowsBuilt:     ls.RowsBuilt,
			Settled:       ls.Settled,
			Evictions:     ls.Evictions,
			CachedEntries: lz.CachedEntries(),
		}
	}
	return snap
}

package server

import (
	"sort"
	"sync/atomic"
	"time"

	"compactrouting/internal/trace"
)

// latencyBucketsUS are the upper bounds (microseconds, inclusive) of
// the fixed latency histogram; the last bucket is unbounded.
var latencyBucketsUS = [...]int64{
	10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000,
	100000, 250000, 500000, 1000000,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation.
type histogram struct {
	counts [len(latencyBucketsUS) + 1]atomic.Uint64 // guarded by atomic
	sumUS  atomic.Int64                             // guarded by atomic
	n      atomic.Uint64                            // guarded by atomic
}

func (h *histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.sumUS.Add(us)
	h.n.Add(1)
	for i, ub := range latencyBucketsUS {
		if us <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBucketsUS)].Add(1)
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	MeanUS  float64           `json:"mean_us"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one cumulative-free histogram bin.
type HistogramBucket struct {
	LEus  int64  `json:"le_us"` // upper bound in microseconds; -1 = +inf
	Count uint64 `json:"count"`
}

func (h *histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.n.Load()}
	if s.Count > 0 {
		s.MeanUS = float64(h.sumUS.Load()) / float64(s.Count)
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		ub := int64(-1)
		if i < len(latencyBucketsUS) {
			ub = latencyBucketsUS[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LEus: ub, Count: c})
	}
	return s
}

// hopBucketEdges bound the per-route hop-count histogram.
var hopBucketEdges = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// headerBitBucketEdges bound the max-header-bits histogram.
var headerBitBucketEdges = []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// valueHist is a fixed-bucket histogram over float64 observations
// (stretch, hops, header bits), safe for concurrent use. The sum is
// kept in 1e-6 units so the mean needs no float atomics.
type valueHist struct {
	edges    []float64       // guarded by init; bucket upper bounds, inclusive
	counts   []atomic.Uint64 // guarded by atomic; len(edges)+1, last unbounded
	n        atomic.Uint64   // guarded by atomic
	sumMicro atomic.Uint64   // guarded by atomic; sum of observations * 1e6
}

func newValueHist(edges []float64) *valueHist {
	return &valueHist{edges: edges, counts: make([]atomic.Uint64, len(edges)+1)}
}

func (h *valueHist) Observe(v float64) {
	h.n.Add(1)
	if v > 0 {
		h.sumMicro.Add(uint64(v * 1e6))
	}
	for i, ub := range h.edges {
		if v <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.edges)].Add(1)
}

// ValueHistogramSnapshot is the JSON form of a valueHist.
type ValueHistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Mean    float64       `json:"mean"`
	Buckets []ValueBucket `json:"buckets,omitempty"`
}

// ValueBucket is one bin; LE is the inclusive upper bound, -1 = +inf.
type ValueBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

func (h *valueHist) Snapshot() ValueHistogramSnapshot {
	s := ValueHistogramSnapshot{Count: h.n.Load()}
	if s.Count > 0 {
		s.Mean = float64(h.sumMicro.Load()) / 1e6 / float64(s.Count)
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		ub := float64(-1)
		if i < len(h.edges) {
			ub = h.edges[i]
		}
		s.Buckets = append(s.Buckets, ValueBucket{LE: ub, Count: c})
	}
	return s
}

// metrics aggregates the server's live counters. All fields are atomics
// so handler goroutines never serialize on a metrics lock.
type metrics struct {
	start        time.Time     // guarded by init
	requests     atomic.Uint64 // guarded by atomic; HTTP requests accepted
	routes       atomic.Uint64 // guarded by atomic; route queries answered, any plane (counted in Engine.route)
	batchRoutes  atomic.Uint64 // guarded by atomic; the HTTP routes served inside batches
	routeErrors  atomic.Uint64 // guarded by atomic; route queries that failed (counted in Engine.route)
	badRequests  atomic.Uint64 // guarded by atomic; malformed HTTP requests
	reloads      atomic.Uint64 // guarded by atomic; graph reloads performed
	inFlight     atomic.Int64  // guarded by atomic; requests currently being served
	routeLatency histogram     // guarded by atomic; per-route latency (cache hits included)
	batchLatency histogram     // guarded by atomic; whole-batch latency
	chaosDrops   atomic.Uint64 // guarded by atomic; packets lost to injected faults
	chaosRetries atomic.Uint64 // guarded by atomic; extra transmissions the retry layer spent
	chaosFailed  atomic.Uint64 // guarded by atomic; deliveries that failed every attempt

	routeLatencyHit  histogram // guarded by atomic; latency of cache-hit route requests
	routeLatencyMiss histogram // guarded by atomic; latency of computed route requests

	// Binary serving plane (framed TCP) counters; route-level counts
	// share routes/routeErrors and the route latency histograms above,
	// which Engine.route feeds for both planes.
	tcpConns     atomic.Int64  // guarded by atomic; open TCP connections
	tcpFrames    atomic.Uint64 // guarded by atomic; response frames encoded, counted before the write
	tcpRoutes    atomic.Uint64 // guarded by atomic; route queries served over TCP
	tcpErrors    atomic.Uint64 // guarded by atomic; per-pair route failures over TCP
	tcpBadFrames atomic.Uint64 // guarded by atomic; malformed frames rejected
	tcpLatency   histogram     // guarded by atomic; frame service time up to the encoded response, without the socket write

	// Route-shape histograms, fed by every computed (non-cached) route.
	// The stretch histograms use the shared trace.StretchBucketEdges so
	// /metrics and routebench -json distributions are comparable.
	traceSchemes []string              // guarded by init; sorted scheme names
	stretchHist  map[string]*valueHist // guarded by init; per-scheme stretch, fixed key set
	hopsHist     *valueHist            // guarded by init
	headerHist   *valueHist            // guarded by init

	// Sampled-trace accounting: every 1-in-N route runs traced and its
	// per-phase decomposition lands here (costs in 1e-6 units).
	tracesSampled  atomic.Uint64                  // guarded by atomic
	phaseHops      [trace.NumPhases]atomic.Uint64 // guarded by atomic
	phaseCostMicro [trace.NumPhases]atomic.Uint64 // guarded by atomic
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds    float64              `json:"uptime_seconds"`
	Requests         uint64               `json:"requests"`
	Routes           uint64               `json:"routes"`
	BatchRoutes      uint64               `json:"batch_routes"`
	RouteErrors      uint64               `json:"route_errors"`
	BadRequests      uint64               `json:"bad_requests"`
	Reloads          uint64               `json:"reloads"`
	InFlight         int64                `json:"in_flight"`
	Cache            CacheSnapshot        `json:"cache"`
	RouteLatency     HistogramSnapshot    `json:"route_latency"`
	RouteLatencyHit  HistogramSnapshot    `json:"route_latency_hit"`
	RouteLatencyMiss HistogramSnapshot    `json:"route_latency_miss"`
	BatchLatency     HistogramSnapshot    `json:"batch_latency"`
	Trace            TraceMetricsSnapshot `json:"trace"`
	TCP              TCPSnapshot          `json:"tcp"`
	Chaos            ChaosSnapshot        `json:"chaos"`
	Generation       uint64               `json:"generation"`
	Schemes          []string             `json:"schemes"`
	// Distance is the lazy distance oracle's work since it was created
	// (the network's build, then the point searches of served routes);
	// nil (omitted) on the dense backend, whose queries are matrix
	// reads.
	Distance *DistanceSnapshot `json:"distance,omitempty"`
}

// DistanceSnapshot reports the lazy oracle's counters (see
// metric.LazyStats): rows built and entries settled by construction,
// cache hits and evictions, the entries the row cache holds now, and
// the point searches that answer served optimal distances no cached
// row holds, with the nodes they expanded and the kernel runs that
// built their landmark index.
type DistanceSnapshot struct {
	Backend       string `json:"backend"`
	Hits          uint64 `json:"hits"`
	RowsBuilt     uint64 `json:"rows_built"`
	Settled       uint64 `json:"settled"`
	Evictions     uint64 `json:"evictions"`
	CachedEntries int    `json:"cached_entries"`
	PointSearches uint64 `json:"point_searches"`
	PointExpanded uint64 `json:"point_expanded"`
	LandmarkRows  uint64 `json:"landmark_rows"`
}

// TraceMetricsSnapshot reports the tracing-derived distributions: the
// per-scheme stretch histograms, the route-shape histograms, and the
// sampled per-phase detour decomposition.
type TraceMetricsSnapshot struct {
	SampleEvery int                    `json:"sample_every,omitempty"`
	Sampled     uint64                 `json:"sampled"`
	Stretch     []SchemeStretchHist    `json:"stretch,omitempty"`
	Hops        ValueHistogramSnapshot `json:"hops"`
	HeaderBits  ValueHistogramSnapshot `json:"header_bits"`
	Phases      []PhaseSnapshot        `json:"phases,omitempty"`
}

// SchemeStretchHist is one scheme's served-stretch distribution.
type SchemeStretchHist struct {
	Scheme string                 `json:"scheme"`
	Hist   ValueHistogramSnapshot `json:"hist"`
}

// PhaseSnapshot aggregates the sampled traces' hops and cost spent in
// one scheme phase.
type PhaseSnapshot struct {
	Phase string  `json:"phase"`
	Hops  uint64  `json:"hops"`
	Cost  float64 `json:"cost"`
}

// ChaosSnapshot reports the fault-injection counters (routed -chaos):
// what the injector destroyed and what the retry layer absorbed.
type ChaosSnapshot struct {
	Enabled          bool    `json:"enabled"`
	Loss             float64 `json:"loss,omitempty"`
	MaxAttempts      int     `json:"max_attempts,omitempty"`
	Drops            uint64  `json:"drops"`
	Retries          uint64  `json:"retries"`
	FailedDeliveries uint64  `json:"failed_deliveries"`
}

// TCPSnapshot reports the binary serving plane's counters: connection
// gauge, frame and route throughput, rejects, and per-frame service
// latency (up to the encoded response, without the socket write).
type TCPSnapshot struct {
	Connections  int64             `json:"connections"`
	Frames       uint64            `json:"frames"`
	Routes       uint64            `json:"routes"`
	RouteErrors  uint64            `json:"route_errors"`
	BadFrames    uint64            `json:"bad_frames"`
	FrameLatency HistogramSnapshot `json:"frame_latency"`
}

// CacheSnapshot reports the route cache counters. Evicted counts puts
// that overwrote a different key; Declined counts puts the admission
// policy refused because no way of the set was free, stale or unused
// since the set last aged; Size is the number of ways holding a route.
type CacheSnapshot struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Evicted  uint64  `json:"evicted"`
	Declined uint64  `json:"declined"`
	Size     int     `json:"size"`
	HitRate  float64 `json:"hit_rate"`
}

func newMetrics(schemes []string) *metrics {
	sorted := append([]string(nil), schemes...)
	sort.Strings(sorted)
	hist := make(map[string]*valueHist, len(sorted))
	for _, s := range sorted {
		hist[s] = newValueHist(trace.StretchBucketEdges)
	}
	return &metrics{
		start:        time.Now(),
		traceSchemes: sorted,
		stretchHist:  hist,
		hopsHist:     newValueHist(hopBucketEdges),
		headerHist:   newValueHist(headerBitBucketEdges),
	}
}

// observeRoute records one computed route's shape.
func (m *metrics) observeRoute(scheme string, stretch float64, hops, headerBits int) {
	if h, ok := m.stretchHist[scheme]; ok {
		h.Observe(stretch)
	}
	m.hopsHist.Observe(float64(hops))
	m.headerHist.Observe(float64(headerBits))
}

// observeChaos records one fault-injected delivery: what the injector
// destroyed and what the retry layer spent.
func (m *metrics) observeChaos(w walked) {
	m.chaosDrops.Add(uint64(w.drops))
	if w.attempts > 1 {
		m.chaosRetries.Add(uint64(w.attempts - 1))
	}
	if w.Err != nil {
		m.chaosFailed.Add(1)
	}
}

// observeTrace folds one sampled trace into the phase decomposition.
func (m *metrics) observeTrace(t *trace.Trace) {
	m.tracesSampled.Add(1)
	for i := range t.Hops {
		p := t.Hops[i].Phase
		if int(p) >= trace.NumPhases {
			p = trace.PhaseDirect
		}
		m.phaseHops[p].Add(1)
		m.phaseCostMicro[p].Add(uint64(t.Hops[i].Dist * 1e6))
	}
}

func (m *metrics) snapshot(c *liteCache) MetricsSnapshot {
	st := c.stats()
	cs := CacheSnapshot{Hits: st.hits, Misses: st.misses, Evicted: st.evicted, Declined: st.declined, Size: st.size}
	if total := st.hits + st.misses; total > 0 {
		cs.HitRate = float64(st.hits) / float64(total)
	}
	tm := TraceMetricsSnapshot{
		Sampled:    m.tracesSampled.Load(),
		Hops:       m.hopsHist.Snapshot(),
		HeaderBits: m.headerHist.Snapshot(),
	}
	for _, name := range m.traceSchemes {
		h := m.stretchHist[name]
		if h.n.Load() == 0 {
			continue
		}
		tm.Stretch = append(tm.Stretch, SchemeStretchHist{Scheme: name, Hist: h.Snapshot()})
	}
	for p := 0; p < trace.NumPhases; p++ {
		hops := m.phaseHops[p].Load()
		if hops == 0 {
			continue
		}
		tm.Phases = append(tm.Phases, PhaseSnapshot{
			Phase: trace.Phase(p).String(),
			Hops:  hops,
			Cost:  float64(m.phaseCostMicro[p].Load()) / 1e6,
		})
	}
	return MetricsSnapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Requests:         m.requests.Load(),
		Routes:           m.routes.Load(),
		BatchRoutes:      m.batchRoutes.Load(),
		RouteErrors:      m.routeErrors.Load(),
		BadRequests:      m.badRequests.Load(),
		Reloads:          m.reloads.Load(),
		InFlight:         m.inFlight.Load(),
		Cache:            cs,
		RouteLatency:     m.routeLatency.Snapshot(),
		RouteLatencyHit:  m.routeLatencyHit.Snapshot(),
		RouteLatencyMiss: m.routeLatencyMiss.Snapshot(),
		BatchLatency:     m.batchLatency.Snapshot(),
		Trace:            tm,
		TCP: TCPSnapshot{
			Connections:  m.tcpConns.Load(),
			Frames:       m.tcpFrames.Load(),
			Routes:       m.tcpRoutes.Load(),
			RouteErrors:  m.tcpErrors.Load(),
			BadFrames:    m.tcpBadFrames.Load(),
			FrameLatency: m.tcpLatency.Snapshot(),
		},
		Chaos: ChaosSnapshot{
			Drops:            m.chaosDrops.Load(),
			Retries:          m.chaosRetries.Load(),
			FailedDeliveries: m.chaosFailed.Load(),
		},
	}
}

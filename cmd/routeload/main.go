// Command routeload is the serving plane's load generator: it drives
// route queries at a routed engine over both protocols — HTTP/JSON and
// the binary frame protocol (internal/frame) — and reports sustained
// QPS with p50/p99/p999 latency per protocol, plus the TCP-over-HTTP
// speedup. By default it self-hosts: the engine is built in-process and
// served on loopback listeners, so one invocation measures both planes
// against the exact same tables.
//
// Usage:
//
//	routeload -graph geometric -n 256 -scheme full-table -duration 2s -json
//	routeload -tcp 127.0.0.1:8081 -conns 8 -batch 32     # external server, TCP only
//	routeload -http 127.0.0.1:8080 -rate 5000            # open loop at 5k QPS
//	routeload -json -timing=false                        # deterministic: counts and
//	                                                     # route sums only, no clocks
//
// Modes:
//
//   - Closed loop (default): every connection issues its next operation
//     as soon as the previous one completes, for -duration.
//   - Open loop (-rate N): operations are paced at N ops/sec spread
//     across -conns connections, exposing queueing latency.
//   - Deterministic (-timing=false): every connection walks its static
//     share of the pair set exactly -iters times; the output carries
//     only counts and route-shape sums, so two runs are byte-identical
//     (the `make check` routeload-determinism gate double-runs this).
//
// An HTTP operation is one POST /route query; a TCP operation is one
// route frame batching -batch queries. Latency percentiles are per
// operation.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"compactrouting"
	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
	"compactrouting/internal/graph"
	"compactrouting/internal/server"
)

func main() {
	var (
		httpAddr = flag.String("http", "", "HTTP server address (empty = self-host in-process)")
		tcpAddr  = flag.String("tcp", "", "frame-protocol server address (empty = self-host in-process)")
		kind     = flag.String("graph", "geometric", "self-host workload graph family: "+graph.FamilyNames())
		n        = flag.Int("n", 256, "self-host network size")
		seed     = flag.Int64("seed", 1, "graph / pair-generation seed")
		eps      = flag.Float64("eps", 0.25, "self-host stretch parameter")
		scheme   = flag.String("scheme", "full-table", "scheme to query")
		cache    = flag.Int("cache", 1<<16, "self-host route cache entries (0 disables)")
		pairs    = flag.Int("pairs", 512, "distinct (src,dst) pairs in the query set")
		conns    = flag.Int("conns", 4, "concurrent connections per protocol")
		batch    = flag.Int("batch", 16, "route queries per TCP frame")
		duration = flag.Duration("duration", 2*time.Second, "closed/open loop run length per protocol")
		rate     = flag.Float64("rate", 0, "open-loop target ops/sec across all connections (0 = closed loop)")
		iters    = flag.Int("iters", 50, "deterministic mode: passes over each connection's pair share")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		timing   = flag.Bool("timing", true, "measure QPS and latency; -timing=false runs the deterministic fixed-work mode")
	)
	flag.Parse()
	if err := run(config{
		HTTPAddr: *httpAddr, TCPAddr: *tcpAddr,
		Graph: *kind, N: *n, Seed: *seed, Eps: *eps, Scheme: *scheme, Cache: *cache,
		Pairs: *pairs, Conns: *conns, Batch: *batch,
		Duration: *duration, Rate: *rate, Iters: *iters,
		JSON: *jsonOut, Timing: *timing,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "routeload:", err)
		os.Exit(1)
	}
}

type config struct {
	HTTPAddr, TCPAddr string
	Graph             string
	N                 int
	Seed              int64
	Eps               float64
	Scheme            string
	Cache             int
	Pairs             int
	Conns             int
	Batch             int
	Duration          time.Duration
	Rate              float64
	Iters             int
	JSON              bool
	Timing            bool
}

// reportConfig is the config echo in the JSON report (stable fields
// only: no durations in deterministic mode).
type reportConfig struct {
	Graph     string  `json:"graph,omitempty"`
	N         int     `json:"n"`
	Seed      int64   `json:"seed"`
	Scheme    string  `json:"scheme"`
	Pairs     int     `json:"pairs"`
	Conns     int     `json:"conns"`
	Batch     int     `json:"batch"`
	Mode      string  `json:"mode"`
	DurationS float64 `json:"duration_s,omitempty"`
	RateOps   float64 `json:"rate_ops,omitempty"`
	Iters     int     `json:"iters,omitempty"`
}

// protoResult is one protocol's aggregate. In deterministic mode the
// timing fields are zero and omitted, leaving only fields that are a
// pure function of the engine and the pair set.
type protoResult struct {
	Queries    int     `json:"queries"`
	Errors     int     `json:"errors"`
	HopsTotal  int64   `json:"hops_total"`
	CostSum    float64 `json:"cost_sum"`
	OptimalSum float64 `json:"optimal_sum"`
	Seconds    float64 `json:"seconds,omitempty"`
	QPS        float64 `json:"qps,omitempty"`
	MeanUS     float64 `json:"mean_us,omitempty"`
	P50us      float64 `json:"p50_us,omitempty"`
	P99us      float64 `json:"p99_us,omitempty"`
	P999us     float64 `json:"p999_us,omitempty"`
}

type report struct {
	Config     reportConfig `json:"config"`
	HTTP       *protoResult `json:"http,omitempty"`
	TCP        *protoResult `json:"tcp,omitempty"`
	TCPSpeedup float64      `json:"tcp_speedup,omitempty"`
}

type pair struct{ src, dst int }

// opStats is one operation's contribution; per-connection accumulation
// is strictly sequential and connections are combined in id order, so
// the float sums are deterministic.
type opStats struct {
	queries, errors int
	hops            int64
	cost, optimal   float64
}

func (a *opStats) add(b opStats) {
	a.queries += b.queries
	a.errors += b.errors
	a.hops += b.hops
	a.cost += b.cost
	a.optimal += b.optimal
}

// client issues one operation over a slice of the pair set.
type client interface {
	op(ps []pair) (opStats, error)
	close()
}

func run(cfg config) error {
	selfHost := cfg.HTTPAddr == "" && cfg.TCPAddr == ""
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()

	nNodes := cfg.N
	if selfHost {
		eng, err := buildEngine(cfg)
		if err != nil {
			return err
		}
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: eng.Handler()}
		// joined by srv.Close in the cleanup list: Serve returns once the
		// listener closes, before the process exits.
		go srv.Serve(hln)
		cleanup = append(cleanup, func() { srv.Close() })
		cfg.HTTPAddr = hln.Addr().String()

		tln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		tsrv := server.NewTCPServer(eng)
		// joined by tln.Close in the cleanup list: the accept loop exits
		// when its listener closes.
		go tsrv.Serve(tln)
		cleanup = append(cleanup, func() { tln.Close() })
		cfg.TCPAddr = tln.Addr().String()
		nNodes = eng.Graph().Nodes
	}

	// Resolve the scheme index and node count from whichever server is
	// being driven (the frame protocol addresses schemes by index).
	schemeIdx := -1
	if cfg.TCPAddr != "" {
		var err error
		nNodes, schemeIdx, err = tcpDiscover(cfg.TCPAddr, cfg.Scheme)
		if err != nil {
			return err
		}
	} else if !selfHost {
		var err error
		nNodes, err = httpDiscover(cfg.HTTPAddr, cfg.Scheme)
		if err != nil {
			return err
		}
	}
	if nNodes <= 1 {
		return fmt.Errorf("need a network with at least 2 nodes, have %d", nNodes)
	}

	ps := makePairs(cfg.Pairs, nNodes, cfg.Seed)
	rep := report{Config: reportConfig{
		Graph: cfg.Graph, N: nNodes, Seed: cfg.Seed, Scheme: cfg.Scheme,
		Pairs: cfg.Pairs, Conns: cfg.Conns, Batch: cfg.Batch,
	}}
	switch {
	case !cfg.Timing:
		rep.Config.Mode = "deterministic"
		rep.Config.Iters = cfg.Iters
	case cfg.Rate > 0:
		rep.Config.Mode = "open"
		rep.Config.DurationS = cfg.Duration.Seconds()
		rep.Config.RateOps = cfg.Rate
	default:
		rep.Config.Mode = "closed"
		rep.Config.DurationS = cfg.Duration.Seconds()
	}
	if !selfHost {
		rep.Config.Graph = ""
	}

	if cfg.HTTPAddr != "" {
		res, err := runProtocol(cfg, ps, 1, func() (client, error) {
			return newHTTPClient(cfg.HTTPAddr, cfg.Scheme), nil
		})
		if err != nil {
			return fmt.Errorf("http: %w", err)
		}
		rep.HTTP = res
	}
	if cfg.TCPAddr != "" {
		res, err := runProtocol(cfg, ps, cfg.Batch, func() (client, error) {
			return newTCPClient(cfg.TCPAddr, schemeIdx)
		})
		if err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		rep.TCP = res
	}
	if cfg.Timing && rep.HTTP != nil && rep.TCP != nil && rep.HTTP.QPS > 0 {
		rep.TCPSpeedup = rep.TCP.QPS / rep.HTTP.QPS
	}
	return emit(rep, cfg.JSON)
}

func buildEngine(cfg config) (*server.Engine, error) {
	return server.New(server.Config{
		Build: func(seed int64) (*compactrouting.Network, error) {
			return compactrouting.GenerateNetwork(cfg.Graph, cfg.N, seed, compactrouting.BackendDense)
		},
		Seed:         cfg.Seed,
		Eps:          cfg.Eps,
		Schemes:      []string{cfg.Scheme},
		CacheEntries: cfg.Cache,
	})
}

func makePairs(count, n int, seed int64) []pair {
	rng := rand.New(rand.NewSource(seed + 1))
	ps := make([]pair, count)
	for i := range ps {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		for dst == src {
			dst = rng.Intn(n)
		}
		ps[i] = pair{src, dst}
	}
	return ps
}

// runProtocol drives one protocol with cfg.Conns connections, each
// consuming `per` pairs per operation.
func runProtocol(cfg config, ps []pair, per int, dial func() (client, error)) (*protoResult, error) {
	conns := cfg.Conns
	if conns <= 0 {
		conns = 1
	}
	clients := make([]client, conns)
	for i := range clients {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		clients[i] = c
		defer c.close()
	}

	stats := make([]opStats, conns)
	errs := make([]error, conns)
	lats := make([][]int64, conns)
	done := make(chan int, conns)

	// Each connection owns a static contiguous share of the pair set.
	share := func(id int) []pair {
		lo := id * len(ps) / conns
		hi := (id + 1) * len(ps) / conns
		if hi <= lo {
			return ps // degenerate split: more conns than pairs
		}
		return ps[lo:hi]
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var interval time.Duration
	if cfg.Timing && cfg.Rate > 0 {
		interval = time.Duration(float64(conns) / cfg.Rate * float64(time.Second))
	}
	for id := 0; id < conns; id++ {
		go func(id int) {
			defer func() { done <- id }()
			mine := share(id)
			c := clients[id]
			if !cfg.Timing {
				for it := 0; it < cfg.Iters; it++ {
					for off := 0; off < len(mine); off += per {
						end := off + per
						if end > len(mine) {
							end = len(mine)
						}
						st, err := c.op(mine[off:end])
						if err != nil {
							errs[id] = err
							return
						}
						stats[id].add(st)
					}
				}
				return
			}
			next := start
			for off := 0; ; off += per {
				if off >= len(mine) {
					off = 0
				}
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				if time.Now().After(deadline) {
					return
				}
				end := off + per
				if end > len(mine) {
					end = len(mine)
				}
				t0 := time.Now()
				st, err := c.op(mine[off:end])
				if err != nil {
					errs[id] = err
					return
				}
				lats[id] = append(lats[id], time.Since(t0).Microseconds())
				stats[id].add(st)
			}
		}(id)
	}
	for i := 0; i < conns; i++ {
		<-done
	}
	elapsed := time.Since(start)

	var total opStats
	for id := 0; id < conns; id++ { // combine in id order: deterministic float sums
		if errs[id] != nil {
			return nil, errs[id]
		}
		total.add(stats[id])
	}
	res := &protoResult{
		Queries:    total.queries,
		Errors:     total.errors,
		HopsTotal:  total.hops,
		CostSum:    total.cost,
		OptimalSum: total.optimal,
	}
	if cfg.Timing {
		var all []int64
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.Seconds = elapsed.Seconds()
		if res.Seconds > 0 {
			res.QPS = float64(total.queries) / res.Seconds
		}
		if len(all) > 0 {
			var sum int64
			for _, v := range all {
				sum += v
			}
			res.MeanUS = float64(sum) / float64(len(all))
			res.P50us = percentile(all, 0.50)
			res.P99us = percentile(all, 0.99)
			res.P999us = percentile(all, 0.999)
		}
	}
	return res, nil
}

func percentile(sorted []int64, q float64) float64 {
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx])
}

// ---- HTTP client ----

type httpClient struct {
	c      *http.Client
	url    string
	scheme string
	buf    bytes.Buffer
}

func newHTTPClient(addr, scheme string) *httpClient {
	return &httpClient{
		c:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:    "http://" + addr + "/route",
		scheme: scheme,
	}
}

func (h *httpClient) op(ps []pair) (opStats, error) {
	var st opStats
	for _, p := range ps {
		h.buf.Reset()
		fmt.Fprintf(&h.buf, `{"scheme":%q,"src":%d,"dst":%d,"omit_path":true}`, h.scheme, p.src, p.dst)
		resp, err := h.c.Post(h.url, "application/json", &h.buf)
		if err != nil {
			return st, err
		}
		var out struct {
			Hops    int     `json:"hops"`
			Cost    float64 `json:"cost"`
			Optimal float64 `json:"optimal"`
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			st.queries++
			st.errors++
			continue
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			resp.Body.Close()
			return st, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st.queries++
		st.hops += int64(out.Hops)
		st.cost += out.Cost
		st.optimal += out.Optimal
	}
	return st, nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

func httpDiscover(addr, scheme string) (n int, err error) {
	resp, err := http.Get("http://" + addr + "/schemes")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Graph struct {
			Nodes int `json:"nodes"`
		} `json:"graph"`
		Schemes []struct {
			Name string `json:"name"`
		} `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	for _, s := range out.Schemes {
		if s.Name == scheme {
			return out.Graph.Nodes, nil
		}
	}
	return 0, fmt.Errorf("server does not serve scheme %q", scheme)
}

// ---- TCP (frame protocol) client ----

type tcpClient struct {
	conn      net.Conn
	br        *bufio.Reader
	w         bits.Writer
	rd        bits.Reader
	out       []byte
	hdr       [frame.HeaderSize]byte
	payload   []byte
	req       frame.RouteRequest
	resp      frame.RouteResponse
	schemeIdx int
	reqID     uint64
}

func newTCPClient(addr string, schemeIdx int) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpClient{
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 32<<10),
		schemeIdx: schemeIdx,
	}, nil
}

// roundTrip writes one frame built by encode and reads one response
// frame back, returning its header and payload (valid until next call).
func (t *tcpClient) roundTrip(typ frame.Type, encode func(*bits.Writer)) (frame.Header, []byte, error) {
	t.reqID++
	t.w.Reset()
	if encode != nil {
		encode(&t.w)
	}
	var err error
	t.out, err = frame.AppendFrame(t.out[:0], typ, t.reqID, t.w.Bytes())
	if err != nil {
		return frame.Header{}, nil, err
	}
	if _, err := t.conn.Write(t.out); err != nil {
		return frame.Header{}, nil, err
	}
	if _, err := io.ReadFull(t.br, t.hdr[:]); err != nil {
		return frame.Header{}, nil, err
	}
	h, err := frame.ParseHeader(t.hdr[:])
	if err != nil {
		return frame.Header{}, nil, err
	}
	if int(h.PayloadLen) > cap(t.payload) {
		t.payload = make([]byte, h.PayloadLen)
	}
	t.payload = t.payload[:h.PayloadLen]
	if _, err := io.ReadFull(t.br, t.payload); err != nil {
		return frame.Header{}, nil, err
	}
	if h.Type == frame.TypeError {
		msg, derr := frame.DecodeError(t.payload, &t.rd)
		if derr != nil {
			return h, nil, derr
		}
		return h, nil, fmt.Errorf("server error: %s", msg)
	}
	return h, t.payload, nil
}

func (t *tcpClient) op(ps []pair) (opStats, error) {
	var st opStats
	t.req.Scheme = t.schemeIdx
	t.req.Pairs = t.req.Pairs[:0]
	for _, p := range ps {
		t.req.Pairs = append(t.req.Pairs, frame.Pair{Src: int32(p.src), Dst: int32(p.dst)})
	}
	h, payload, err := t.roundTrip(frame.TypeRouteRequest, t.req.Encode)
	if err != nil {
		return st, err
	}
	if h.Type != frame.TypeRouteResponse {
		return st, fmt.Errorf("unexpected frame type %d", h.Type)
	}
	if err := t.resp.DecodeInto(payload, &t.rd); err != nil {
		return st, err
	}
	if len(t.resp.Results) != len(ps) {
		return st, fmt.Errorf("got %d results for %d pairs", len(t.resp.Results), len(ps))
	}
	for i := range t.resp.Results {
		r := &t.resp.Results[i]
		st.queries++
		if r.Status != frame.StatusOK {
			st.errors++
			continue
		}
		st.hops += int64(r.Hops)
		st.cost += r.Cost
		st.optimal += r.Optimal
	}
	return st, nil
}

func (t *tcpClient) close() { t.conn.Close() }

// tcpDiscover resolves the network size and the scheme's compile-order
// index via a TypeSchemesRequest frame.
func tcpDiscover(addr, scheme string) (n, schemeIdx int, err error) {
	c, err := newTCPClient(addr, 0)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	h, payload, err := c.roundTrip(frame.TypeSchemesRequest, nil)
	if err != nil {
		return 0, 0, err
	}
	if h.Type != frame.TypeSchemesResponse {
		return 0, 0, fmt.Errorf("unexpected frame type %d", h.Type)
	}
	var sr frame.SchemesResponse
	if err := sr.DecodeInto(payload, &c.rd); err != nil {
		return 0, 0, err
	}
	for i, name := range sr.Names {
		if name == scheme {
			return sr.N, i, nil
		}
	}
	return 0, 0, fmt.Errorf("server does not serve scheme %q (has %v)", scheme, sr.Names)
}

func emit(rep report, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("routeload: scheme=%s n=%d pairs=%d conns=%d batch=%d mode=%s\n",
		rep.Config.Scheme, rep.Config.N, rep.Config.Pairs, rep.Config.Conns, rep.Config.Batch, rep.Config.Mode)
	show := func(name string, r *protoResult) {
		if r == nil {
			return
		}
		if r.Seconds > 0 {
			fmt.Printf("  %-5s %9.0f qps   p50 %6.0fµs  p99 %6.0fµs  p99.9 %6.0fµs   (%d queries, %d errors)\n",
				name, r.QPS, r.P50us, r.P99us, r.P999us, r.Queries, r.Errors)
		} else {
			fmt.Printf("  %-5s %d queries, %d errors, %d total hops, cost sum %.6f, optimal sum %.6f\n",
				name, r.Queries, r.Errors, r.HopsTotal, r.CostSum, r.OptimalSum)
		}
	}
	show("http", rep.HTTP)
	show("tcp", rep.TCP)
	if rep.TCPSpeedup > 0 {
		fmt.Printf("  tcp/http speedup: %.1fx\n", rep.TCPSpeedup)
	}
	return nil
}

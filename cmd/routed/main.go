// Command routed is the serving daemon: it builds (or loads) a network
// once, compiles the configured routing schemes, and answers route and
// stretch queries over HTTP/JSON until stopped — the
// preprocess-once/query-many split compact routing schemes exist for.
//
// Usage:
//
//	routed -addr :8080 -graph geometric -n 256 -schemes simple-labeled,full-table
//	routed -load net.txt -cache 65536
//	routed -listen-tcp :8081               # binary frame protocol next to HTTP
//	routed -snapshot tables.snap           # load tables if present, else build+save
//	routed -chaos 0.05 -chaos-retries 4    # inject 5% per-hop loss, retry
//	routed -pprof localhost:6060           # net/http/pprof debug listener
//
// With -listen-tcp, the engine also serves the length-prefixed binary
// frame protocol (internal/frame): batched route queries, no JSON, no
// per-query allocation — see cmd/routeload for a client and DESIGN.md
// §Serving plane for the wire format. Both protocols share one engine,
// one cache, and one /metrics block.
//
// With -snapshot, startup is load-and-serve: if the file exists, the
// graph, oracle, and every scheme's tables are restored from it without
// running any scheme constructor; if it does not, routed builds as
// usual and writes the snapshot for the next restart. Version-skewed or
// corrupt snapshots are rejected with an explicit error.
//
// With -chaos, every served route runs through internal/faultsim: hops
// are dropped with the given probability, the source retries with
// exponential backoff, the route cache is bypassed, and /metrics gains
// drop/retry/failed-delivery counters — graceful degradation end to end.
//
// Endpoints (see README "Serving mode" for examples):
//
//	POST /route        {"scheme":"simple-labeled","src":0,"dst":5}  (+ ?trace=1 for the hop log)
//	POST /route/batch  {"scheme":"full-table","pairs":[[0,5],[3,9]]}
//	GET  /schemes      table/label bit accounting per scheme
//	GET  /metrics      counters, latency histograms, cache hit rate
//	POST /reload       {"seed":7} — regenerate the graph, drop the cache
//	GET  /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // debug handlers for the -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"compactrouting"
	"compactrouting/internal/server"
	"compactrouting/internal/snapshot"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		tcpAddr = flag.String("listen-tcp", "", "also serve the binary frame protocol on this TCP address (empty disables)")
		snapP   = flag.String("snapshot", "", "table snapshot path: load it if present, else build and save it (empty disables)")
		kind    = flag.String("graph", "geometric", "generated workload: geometric|grid|grid-holes|ring|exp-path|power-law")
		backend = flag.String("backend", "dense", "distance backend for preprocessing: dense (up-front APSP matrix) or lazy (on-demand truncated Dijkstra rows; no n\u00b2 memory)")
		n       = flag.Int("n", 256, "target network size for generated graphs")
		seed    = flag.Int64("seed", 1, "generator / naming seed")
		eps     = flag.Float64("eps", 0.25, "stretch parameter epsilon (clamped per scheme)")
		schemes = flag.String("schemes", strings.Join(server.SchemeNames, ","), "comma-separated schemes to compile, from: "+strings.Join(server.SchemeNames, "|"))
		load    = flag.String("load", "", "load an edge-list file (graphgen format) instead of generating")
		cache   = flag.Int("cache", 1<<16, "route cache capacity in entries (0 disables)")
		workers = flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		pprofA  = flag.String("pprof", "", "serve net/http/pprof on this separate debug address (e.g. localhost:6060); empty disables")

		chaosLoss    = flag.Float64("chaos", 0, "per-hop packet-loss probability to inject on served routes (0 disables fault injection)")
		chaosSeed    = flag.Int64("chaos-seed", 0, "seed for the fault draws (0 = -seed)")
		chaosRetries = flag.Int("chaos-retries", 0, "max transmissions per query under -chaos (0 = faultsim default)")

		traceSample = flag.Int("trace-sample", 0, "run every Nth route query traced and fold the per-phase decomposition into /metrics (0 disables sampling)")
		traceCap    = flag.Int("trace-cap", 0, "max hop records per ?trace=1 response (0 = default 512, negative = unlimited)")
	)
	flag.Parse()
	var chaos *server.ChaosParams
	if *chaosLoss > 0 {
		chaos = &server.ChaosParams{Loss: *chaosLoss, Seed: *chaosSeed, MaxAttempts: *chaosRetries}
	}
	be, err := compactrouting.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routed:", err)
		os.Exit(1)
	}
	if err := run(*addr, *tcpAddr, *snapP, *kind, *n, *seed, *eps, *schemes, *load, be, *cache, *workers, *pprofA, chaos, *traceSample, *traceCap); err != nil {
		fmt.Fprintln(os.Stderr, "routed:", err)
		os.Exit(1)
	}
}

// buildFunc returns the network constructor the engine calls at startup
// and on every /reload.
func buildFunc(kind string, n int, load string, backend compactrouting.Backend) func(seed int64) (*compactrouting.Network, error) {
	if load != "" {
		// The first call is the startup build; /reload would only
		// re-read the same file (new namings, same graph), so reject it
		// rather than bump the generation for an identical network.
		// Build is called once in server.New and then only under the
		// engine's reload mutex, so the flag needs no synchronization.
		loaded := false
		return func(int64) (*compactrouting.Network, error) {
			if loaded {
				return nil, fmt.Errorf("reload is not supported with -load %s: restart routed to pick up file changes", load)
			}
			f, err := os.Open(load)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			nw, err := compactrouting.ReadNetworkOn(f, backend)
			if err == nil {
				loaded = true
			}
			return nw, err
		}
	}
	return func(seed int64) (*compactrouting.Network, error) {
		return compactrouting.GenerateNetwork(kind, n, seed, backend)
	}
}

// newEngine builds the engine, preferring a snapshot restore when
// snapPath names an existing file; on a fresh build with snapPath set,
// the compiled tables are saved for the next restart.
func newEngine(cfg server.Config, snapPath string) (*server.Engine, error) {
	if snapPath != "" {
		if f, err := snapshot.Load(snapPath); err == nil {
			eng, rerr := server.NewFromSnapshot(cfg, f)
			if rerr != nil {
				return nil, fmt.Errorf("snapshot %s: %w", snapPath, rerr)
			}
			log.Printf("routed: restored engine from snapshot %s (generation %d, no scheme rebuilt)", snapPath, f.Generation)
			return eng, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("snapshot %s: %w", snapPath, err)
		}
	}
	eng, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if snapPath != "" {
		f, err := eng.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", snapPath, err)
		}
		if err := snapshot.Save(snapPath, f); err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", snapPath, err)
		}
		log.Printf("routed: wrote table snapshot %s", snapPath)
	}
	return eng, nil
}

func run(addr, tcpAddr, snapPath, kind string, n int, seed int64, eps float64, schemes, load string, backend compactrouting.Backend, cache, workers int, pprofAddr string, chaos *server.ChaosParams, traceSample, traceCap int) error {
	start := time.Now()
	eng, err := newEngine(server.Config{
		Build:        buildFunc(kind, n, load, backend),
		Seed:         seed,
		Eps:          eps,
		Schemes:      strings.Split(schemes, ","),
		CacheEntries: cache,
		Workers:      workers,
		Chaos:        chaos,
		TraceSample:  traceSample,
		TraceHopCap:  traceCap,
	}, snapPath)
	if err != nil {
		return err
	}
	gi := eng.Graph()
	log.Printf("routed: serving n=%d m=%d network on %s (built in %v)", gi.Nodes, gi.Edges, addr, time.Since(start).Round(time.Millisecond))
	if chaos != nil {
		log.Printf("routed: CHAOS MODE — injecting %.1f%% per-hop loss (route cache bypassed, drops/retries on /metrics)", 100*chaos.Loss)
	}
	if traceSample > 0 {
		log.Printf("routed: tracing every %d-th route query (per-phase decomposition on /metrics)", traceSample)
	}
	for _, si := range eng.Schemes() {
		log.Printf("routed: scheme %-28s %s, label %d bits, tables max %d / mean %.0f bits (compiled in %.0f ms)",
			si.Name, si.Kind, si.LabelBits, si.TableMaxBits, si.TableMeanBits, si.BuildMillis)
	}

	if pprofAddr != "" {
		// The pprof handlers live on their own listener (and the default
		// mux, which the API server never uses) so profiling exposure is
		// separable from serving traffic.
		// joined by process lifetime: the debug listener serves until exit
		// by design, like net/http/pprof's own examples.
		go func() {
			log.Printf("routed: pprof debug listener on http://%s/debug/pprof/", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("routed: pprof listener: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: addr, Handler: eng.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var tcp *server.TCPServer
	tcpErrc := make(chan error, 1)
	if tcpAddr != "" {
		ln, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			return fmt.Errorf("listen-tcp %s: %w", tcpAddr, err)
		}
		tcp = server.NewTCPServer(eng)
		log.Printf("routed: binary frame protocol on %s", ln.Addr())
		go func() { tcpErrc <- tcp.Serve(ln) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case err := <-tcpErrc:
		return err
	case s := <-sig:
		log.Printf("routed: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if tcp != nil {
			// Drain in-flight TCP frames first: handlers finish the frame
			// they are serving, then exit; the deadline force-closes
			// stragglers.
			if err := tcp.Shutdown(ctx); err != nil {
				return err
			}
			if err := <-tcpErrc; !errors.Is(err, server.ErrTCPServerClosed) {
				return err
			}
		}
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

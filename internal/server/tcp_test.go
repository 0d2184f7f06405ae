package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"compactrouting"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/frame"
)

func tcpTestEngine(t testing.TB, cacheEntries int, schemes ...string) *Engine {
	t.Helper()
	if len(schemes) == 0 {
		schemes = []string{"full-table", "simple-labeled"}
	}
	eng, err := New(Config{
		Build: func(int64) (*compactrouting.Network, error) {
			return compactrouting.GridNetwork(5, 5)
		},
		Seed:         3,
		Eps:          0.25,
		Schemes:      schemes,
		CacheEntries: cacheEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// startTCP serves the frame protocol on a loopback listener and returns
// the address, the server, and the Serve goroutine's error channel.
func startTCP(t testing.TB, eng *Engine) (string, *TCPServer, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(eng)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return ln.Addr().String(), srv, errc
}

type testConn struct {
	c  net.Conn
	id uint64
}

func dialFrame(t testing.TB, addr string) *testConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &testConn{c: c}
}

// roundTrip sends one frame and reads one response frame back.
func (tc *testConn) roundTrip(t testing.TB, typ frame.Type, enc func(*bits.Writer)) (frame.Header, []byte) {
	t.Helper()
	tc.id++
	var w bits.Writer
	if enc != nil {
		enc(&w)
	}
	buf, err := frame.AppendFrame(nil, typ, tc.id, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(buf); err != nil {
		t.Fatal(err)
	}
	return tc.readFrame(t)
}

func (tc *testConn) readFrame(t testing.TB) (frame.Header, []byte) {
	t.Helper()
	var hdr [frame.HeaderSize]byte
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(tc.c, hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, err := frame.ParseHeader(hdr[:])
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(tc.c, payload); err != nil {
		t.Fatal(err)
	}
	return h, payload
}

func TestTCPServeSchemesAndRoutes(t *testing.T) {
	eng := tcpTestEngine(t, 1<<10)
	addr, srv, _ := startTCP(t, eng)
	defer srv.Shutdown(context.Background())

	tc := dialFrame(t, addr)
	defer tc.c.Close()

	h, payload := tc.roundTrip(t, frame.TypeSchemesRequest, nil)
	if h.Type != frame.TypeSchemesResponse || h.RequestID != tc.id {
		t.Fatalf("header %+v", h)
	}
	var sr frame.SchemesResponse
	var rd bits.Reader
	if err := sr.DecodeInto(payload, &rd); err != nil {
		t.Fatal(err)
	}
	if sr.N != 25 || len(sr.Names) != 2 || sr.Names[0] != "full-table" {
		t.Fatalf("schemes %+v", sr)
	}

	req := frame.RouteRequest{Scheme: 0, Pairs: []frame.Pair{{Src: 0, Dst: 24}, {Src: 3, Dst: 3}, {Src: 0, Dst: 99}}}
	h, payload = tc.roundTrip(t, frame.TypeRouteRequest, req.Encode)
	if h.Type != frame.TypeRouteResponse {
		t.Fatalf("header %+v", h)
	}
	var resp frame.RouteResponse
	if err := resp.DecodeInto(payload, &rd); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}
	if resp.Results[0].Status != frame.StatusOK || resp.Results[0].Cost <= 0 {
		t.Fatalf("result 0: %+v", resp.Results[0])
	}
	full, err := eng.Route("full-table", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Cost != full.Cost || int(resp.Results[0].Hops) != full.Hops {
		t.Fatalf("tcp %+v diverges from http-path %+v", resp.Results[0], full)
	}
	if resp.Results[2].Status != frame.StatusBadPair {
		t.Fatalf("result 2: %+v", resp.Results[2])
	}

	// Both protocols share the metrics block: the TCP counters moved.
	m := eng.Metrics()
	if m.TCP.Frames != 2 || m.TCP.Routes != 3 || m.TCP.RouteErrors != 1 {
		t.Fatalf("tcp metrics %+v", m.TCP)
	}
}

func TestTCPRejectsBadFrames(t *testing.T) {
	eng := tcpTestEngine(t, 0)
	addr, srv, _ := startTCP(t, eng)
	defer srv.Shutdown(context.Background())

	tc := dialFrame(t, addr)
	defer tc.c.Close()
	if _, err := tc.c.Write([]byte("XXXXXXXXXXXXXXXXXXXX")); err != nil {
		t.Fatal(err)
	}
	h, payload := tc.readFrame(t)
	if h.Type != frame.TypeError {
		t.Fatalf("got %+v, want error frame", h)
	}
	var rd bits.Reader
	if msg, err := frame.DecodeError(payload, &rd); err != nil || msg == "" {
		t.Fatalf("error payload %q, %v", msg, err)
	}
	// The server closes the connection after a protocol error.
	var one [1]byte
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := tc.c.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open after bad frame: %v", err)
	}
	if eng.Metrics().TCP.BadFrames == 0 {
		t.Fatal("bad frame not counted")
	}
}

// TestTCPShutdownDrains is the graceful-drain regression test: a frame
// in flight when Shutdown begins must still receive its complete
// response, the connection must then close, and Serve must return
// ErrTCPServerClosed.
func TestTCPShutdownDrains(t *testing.T) {
	eng := tcpTestEngine(t, 1<<10)
	addr, srv, errc := startTCP(t, eng)

	tc := dialFrame(t, addr)
	defer tc.c.Close()
	// Sanity round trip so the handler loop is live.
	tc.roundTrip(t, frame.TypeSchemesRequest, nil)

	// Queue a large batch, then shut down while it is (likely) being
	// served. The drain contract: the full response arrives regardless.
	req := frame.RouteRequest{Scheme: 0}
	for s := 0; s < 25; s++ {
		for d := 0; d < 25; d++ {
			req.Pairs = append(req.Pairs, frame.Pair{Src: int32(s), Dst: int32(d)})
		}
	}
	tc.id++
	var w bits.Writer
	req.Encode(&w)
	buf, err := frame.AppendFrame(nil, frame.TypeRouteRequest, tc.id, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(buf); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	h, payload := tc.readFrame(t)
	if h.Type != frame.TypeRouteResponse || h.RequestID != tc.id {
		t.Fatalf("drained response header %+v", h)
	}
	var resp frame.RouteResponse
	var rd bits.Reader
	if err := resp.DecodeInto(payload, &rd); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(req.Pairs) {
		t.Fatalf("drained %d results, want %d", len(resp.Results), len(req.Pairs))
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrTCPServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	// The drained connection is closed by the server.
	var one [1]byte
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := tc.c.Read(one[:]); err != io.EOF {
		t.Fatalf("connection open after drain: %v", err)
	}
	// New connections are refused.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestTCPShutdownBoundedUnderLoad pins the drain's time bound: clients
// that send their next frame as soon as they read a response (closed
// loop, as routeload does) keep a frame arriving throughout the drain,
// and Shutdown must still return nil within drainPollInterval +
// drainGrace plus a few frames, far before its context expires.
func TestTCPShutdownBoundedUnderLoad(t *testing.T) {
	eng := tcpTestEngine(t, 1<<10)
	addr, srv, errc := startTCP(t, eng)
	var w bits.Writer
	req := frame.RouteRequest{Scheme: 0, Pairs: []frame.Pair{{Src: 0, Dst: 24}, {Src: 3, Dst: 17}}}
	req.Encode(&w)
	route, err := frame.AppendFrame(nil, frame.TypeRouteRequest, 1, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	const clients, warm = 2, 20
	served := make(chan int, clients)
	warmed := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(20 * time.Second))
		go func() {
			var hdr [frame.HeaderSize]byte
			var payload []byte
			k := 0
			for {
				if _, err := c.Write(route); err != nil {
					break
				}
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					break
				}
				h, err := frame.ParseHeader(hdr[:])
				if err != nil {
					break
				}
				if int(h.PayloadLen) > cap(payload) {
					payload = make([]byte, h.PayloadLen)
				}
				if _, err := io.ReadFull(c, payload[:h.PayloadLen]); err != nil {
					break
				}
				if k++; k == warm {
					warmed <- struct{}{}
				}
			}
			if k < warm {
				warmed <- struct{}{}
			}
			served <- k
		}()
	}
	for i := 0; i < clients; i++ {
		<-warmed
	}
	const limit = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 4*limit)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under a closed-loop load: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > limit {
		t.Fatalf("Shutdown took %v under a closed-loop load, want under %v", took, limit)
	}
	for i := 0; i < clients; i++ {
		if k := <-served; k < warm {
			t.Errorf("a client stopped after %d round trips, before Shutdown began", k)
		}
	}
	if err := <-errc; !errors.Is(err, ErrTCPServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestTCPShutdownServesArrivedFrame pins the drain contract against
// the race TestTCPShutdownDrains meets only by chance: a frame written
// just before Shutdown has arrived at the server, so it must be
// answered whether Shutdown lands before or after the handler's first
// draining check. Closing over the unread frame would reset the
// connection instead. Each round runs its own server on one engine,
// and the rounds run on parallel workers because a drain can take up to
// drainPollInterval plus drainGrace.
func TestTCPShutdownServesArrivedFrame(t *testing.T) {
	eng := tcpTestEngine(t, 1<<10)
	const workers, rounds = 20, 10
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < rounds; i++ {
				if err := shutdownRound(eng); err != nil {
					errc <- fmt.Errorf("round %d: %w", i, err)
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

// shutdownRound accepts one connection and, as soon as the server
// tracks it (its handler may not have run yet), writes a route frame,
// shuts the server down and reads the route response.
func shutdownRound(eng *Engine) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := NewTCPServer(eng)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	c.SetDeadline(deadline)
	var w bits.Writer
	req := frame.RouteRequest{Scheme: 0, Pairs: []frame.Pair{{Src: 0, Dst: 24}}}
	req.Encode(&w)
	route, err := frame.AppendFrame(nil, frame.TypeRouteRequest, 2, w.Bytes())
	if err != nil {
		return err
	}
	for !srv.tracking() && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if _, err := c.Write(route); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("Shutdown: %w", err)
	}
	var hdr [frame.HeaderSize]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return fmt.Errorf("reading the route response: %w", err)
	}
	h, err := frame.ParseHeader(hdr[:])
	if err != nil {
		return fmt.Errorf("reading the route response: %w", err)
	}
	if h.Type != frame.TypeRouteResponse || h.RequestID != 2 {
		return fmt.Errorf("drained response header %+v", h)
	}
	if err := <-served; !errors.Is(err, ErrTCPServerClosed) {
		return fmt.Errorf("Serve returned %v", err)
	}
	return nil
}

// tracking reports whether the server has accepted a connection.
func (s *TCPServer) tracking() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns) > 0
}

// TestSnapshotColdStartNoConstructors pins the load-and-serve
// guarantee: building an engine from a snapshot and serving its first
// queries — over both planes — must not invoke any scheme constructor.
func TestSnapshotColdStartNoConstructors(t *testing.T) {
	eng := tcpTestEngine(t, 1<<10, "full-table", "simple-labeled", "scale-free-labeled",
		"name-independent", "scale-free-name-independent", "single-tree")
	f, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := core.SchemeBuilds()
	eng2, err := NewFromSnapshot(Config{}, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Schemes {
		if res := eng2.RouteLite(i, 0, 24); res.Status != frame.StatusOK {
			t.Fatalf("scheme %d first query: %+v", i, res)
		}
	}
	for _, sb := range f.Schemes {
		if _, err := eng2.Route(sb.Name, 1, 23); err != nil {
			t.Fatalf("scheme %s: %v", sb.Name, err)
		}
	}
	if after := core.SchemeBuilds(); after != before {
		t.Fatalf("cold start ran %d scheme constructors", after-before)
	}
}

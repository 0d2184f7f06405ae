package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
)

// ErrTCPServerClosed is returned by Serve once Shutdown has been
// initiated and the accept loop has stopped.
var ErrTCPServerClosed = errors.New("server: tcp server closed")

const (
	// drainPollInterval bounds how long an idle connection handler can go
	// without noticing Shutdown: header reads run under this deadline and
	// re-check the draining flag on timeout. bufio keeps partially read
	// bytes across the timeout, so no frame prefix is ever lost.
	drainPollInterval = 500 * time.Millisecond
	// drainGrace is how long a handler keeps serving once it sees the
	// draining flag. Frames whose bytes arrive within it are read and
	// served; closing over them instead would reset the connection under
	// the client. The grace runs from the handler's first look at the
	// flag and is never extended, so a client that keeps sending cannot
	// hold the drain open.
	drainGrace = 50 * time.Millisecond
	// frameIOTimeout bounds reading the remainder of a frame whose header
	// has arrived, and writing a response.
	frameIOTimeout = 30 * time.Second
	// connReadBufSize sizes the per-connection buffered reader.
	connReadBufSize = 32 << 10
)

// TCPServer serves the binary frame protocol (internal/frame) on raw
// TCP connections against the same Engine the HTTP handlers use, so
// both protocols share one route cache, one generation counter, and one
// metrics block. Each connection gets a goroutine that decodes frames
// into reused buffers and answers through Engine.RouteLite.
type TCPServer struct {
	e        *Engine
	mu       sync.Mutex
	ln       net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	draining atomic.Bool           // guarded by atomic
	wg       sync.WaitGroup
}

// NewTCPServer wraps an engine with a frame-protocol listener.
func NewTCPServer(e *Engine) *TCPServer {
	return &TCPServer{e: e, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Shutdown, returning
// ErrTCPServerClosed on a clean stop.
func (s *TCPServer) Serve(ln net.Listener) error {
	if !s.bind(ln) {
		ln.Close()
		return ErrTCPServerClosed
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrTCPServerClosed
			}
			return err
		}
		if !s.track(c) {
			c.Close() // accepted after Shutdown began
			continue
		}
		// joined by s.wg in Shutdown: track counted the handler.
		go s.handleConn(c)
	}
}

// bind stores the listener, refusing when the server is already
// draining.
func (s *TCPServer) bind(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.ln = ln
	return true
}

// track registers a live connection and counts its handler in wg,
// refusing once the server is draining; untrack removes it. track runs
// under mu, as beginDrain does, so every handler Shutdown waits for was
// counted before the wait began.
func (s *TCPServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *TCPServer) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// beginDrain marks the server draining and closes the bound listener,
// if Serve got that far.
func (s *TCPServer) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
}

// closeConns force-closes every live connection.
func (s *TCPServer) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// Shutdown drains the server: the listener closes immediately, handlers
// finish the frame they are serving and every frame whose bytes arrive
// within drainGrace of their first look at the draining flag (they
// observe it between frames, within drainPollInterval), and Shutdown
// returns when every handler has exited. If ctx expires first,
// remaining connections are force-closed and their handlers reaped
// before returning ctx's error.
func (s *TCPServer) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

func (s *TCPServer) handleConn(c net.Conn) {
	s.e.met.tcpConns.Add(1)
	defer func() {
		s.untrack(c)
		c.Close()
		s.e.met.tcpConns.Add(-1)
		s.wg.Done()
	}()

	// Per-connection reusable state: after warm-up, a route frame is
	// served without allocating (the same decode→route→encode cycle
	// TestFramedRoutePathAllocs pins at 0 allocs/op).
	br := bufio.NewReaderSize(c, connReadBufSize)
	var (
		payload []byte
		rd      bits.Reader
		w       bits.Writer
		req     frame.RouteRequest
		resp    frame.RouteResponse
		out     []byte
	)

	// drainBy is fixed when the handler first sees the draining flag: a
	// client that keeps sending gets its frames served until then, and
	// no longer, so a drain ends within drainPollInterval + drainGrace
	// plus serving what the read buffer already holds.
	var drainBy time.Time
	for {
		if drainBy.IsZero() && s.draining.Load() {
			drainBy = time.Now().Add(drainGrace)
		}
		if drainBy.IsZero() {
			c.SetReadDeadline(time.Now().Add(drainPollInterval))
		} else {
			c.SetReadDeadline(drainBy)
		}
		hdr, err := br.Peek(frame.HeaderSize)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if !drainBy.IsZero() {
					return // the drain's grace is over
				}
				continue // re-check draining; buffered bytes are preserved
			}
			if errors.Is(err, io.EOF) && br.Buffered() == 0 {
				return // clean close between frames
			}
			s.e.met.tcpBadFrames.Add(1)
			return
		}
		h, err := frame.ParseHeader(hdr)
		if err != nil {
			s.e.met.tcpBadFrames.Add(1)
			out = s.writeError(c, &w, out, 0, err.Error())
			return
		}
		br.Discard(frame.HeaderSize)
		c.SetReadDeadline(time.Now().Add(frameIOTimeout))
		if int(h.PayloadLen) > cap(payload) {
			payload = make([]byte, h.PayloadLen)
		}
		payload = payload[:h.PayloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			s.e.met.tcpBadFrames.Add(1)
			return
		}

		start := time.Now()
		switch h.Type {
		case frame.TypeSchemesRequest:
			sw := s.e.SchemesWire()
			w.Reset()
			sw.Encode(&w)
			out, err = frame.AppendFrame(out[:0], frame.TypeSchemesResponse, h.RequestID, w.Bytes())
		case frame.TypeRouteRequest:
			if derr := req.DecodeInto(payload, &rd); derr != nil {
				s.e.met.tcpBadFrames.Add(1)
				out = s.writeError(c, &w, out, h.RequestID, derr.Error())
				return
			}
			resp.Results = resp.Results[:0]
			for _, p := range req.Pairs {
				res := s.e.RouteLite(req.Scheme, int(p.Src), int(p.Dst))
				if res.Status != frame.StatusOK {
					s.e.met.tcpErrors.Add(1)
				}
				resp.Results = append(resp.Results, res)
			}
			s.e.met.tcpRoutes.Add(uint64(len(req.Pairs)))
			w.Reset()
			resp.Encode(&w)
			out, err = frame.AppendFrame(out[:0], frame.TypeRouteResponse, h.RequestID, w.Bytes())
		default:
			// The client sent a server-to-client frame type.
			s.e.met.tcpBadFrames.Add(1)
			out = s.writeError(c, &w, out, h.RequestID, "frame: unexpected frame type from client")
			return
		}
		if err != nil {
			s.e.met.tcpBadFrames.Add(1)
			out = s.writeError(c, &w, out, h.RequestID, err.Error())
			return
		}
		// Count the frame before the write: a client that has read the
		// response and then reads /metrics must see it counted.
		s.e.met.tcpFrames.Add(1)
		s.e.met.tcpLatency.Observe(time.Since(start))
		c.SetWriteDeadline(time.Now().Add(frameIOTimeout))
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// writeError best-effort sends a TypeError frame before the connection
// closes; the (possibly regrown) output buffer is returned for reuse.
func (s *TCPServer) writeError(c net.Conn, w *bits.Writer, out []byte, reqID uint64, msg string) []byte {
	w.Reset()
	frame.EncodeError(w, msg)
	b, err := frame.AppendFrame(out[:0], frame.TypeError, reqID, w.Bytes())
	if err != nil {
		return out
	}
	c.SetWriteDeadline(time.Now().Add(frameIOTimeout))
	c.Write(b)
	return b
}

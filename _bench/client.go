package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
)

// answer is one route result as the client sees it.
type answer struct {
	ok      bool
	hops    int
	cost    float64
	optimal float64
}

// client is one connection of a closed-loop caller: op sends one
// operation (a frame of pairs, or one HTTP request) and waits for the
// answers, appended to out in pair order.
type client interface {
	op(pairs [][2]int, out []answer) ([]answer, error)
	close()
}

// opTimeout bounds one operation: a request the server never answers
// fails the run's connection instead of hanging it.
const opTimeout = 10 * time.Second

// ---- framed TCP ----

type tcpClient struct {
	conn    net.Conn
	br      *bufio.Reader
	w       bits.Writer
	rd      bits.Reader
	out     []byte
	hdr     [frame.HeaderSize]byte
	payload []byte
	req     frame.RouteRequest
	resp    frame.RouteResponse
	reqID   uint64
	// stamps, when set, makes op record when its client-side frame
	// encode and decode ran (the traced window turns them into spans).
	stamps       bool
	encAt, decAt [2]time.Time
}

// dialTCP connects and resolves the scheme's compile-order index with a
// TypeSchemesRequest frame.
func dialTCP(addr, scheme string) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &tcpClient{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}
	h, payload, err := t.roundTrip(frame.TypeSchemesRequest, nil)
	if err == nil && h.Type != frame.TypeSchemesResponse {
		err = fmt.Errorf("unexpected frame type %d", h.Type)
	}
	var sr frame.SchemesResponse
	if err == nil {
		err = sr.DecodeInto(payload, &t.rd)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	for i, name := range sr.Names {
		if name == scheme {
			t.req.Scheme = i
			return t, nil
		}
	}
	conn.Close()
	return nil, fmt.Errorf("server does not serve %q (has %v)", scheme, sr.Names)
}

func (t *tcpClient) roundTrip(typ frame.Type, encode func(*bits.Writer)) (frame.Header, []byte, error) {
	t.reqID++
	if err := t.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return frame.Header{}, nil, err
	}
	t.w.Reset()
	if t.stamps {
		t.encAt[0] = time.Now()
	}
	if encode != nil {
		encode(&t.w)
	}
	var err error
	t.out, err = frame.AppendFrame(t.out[:0], typ, t.reqID, t.w.Bytes())
	if err != nil {
		return frame.Header{}, nil, err
	}
	if t.stamps {
		t.encAt[1] = time.Now()
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
	if h.RequestID != t.reqID {
		return h, nil, fmt.Errorf("response id %d for request %d", h.RequestID, t.reqID)
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

func (t *tcpClient) op(pairs [][2]int, out []answer) ([]answer, error) {
	t.req.Pairs = t.req.Pairs[:0]
	for _, p := range pairs {
		t.req.Pairs = append(t.req.Pairs, frame.Pair{Src: int32(p[0]), Dst: int32(p[1])})
	}
	h, payload, err := t.roundTrip(frame.TypeRouteRequest, t.req.Encode)
	if err != nil {
		return out, err
	}
	if h.Type != frame.TypeRouteResponse {
		return out, fmt.Errorf("unexpected frame type %d", h.Type)
	}
	if t.stamps {
		t.decAt[0] = time.Now()
	}
	if err := t.resp.DecodeInto(payload, &t.rd); err != nil {
		return out, err
	}
	if t.stamps {
		t.decAt[1] = time.Now()
	}
	if len(t.resp.Results) != len(pairs) {
		return out, fmt.Errorf("got %d results for %d pairs", len(t.resp.Results), len(pairs))
	}
	for _, r := range t.resp.Results {
		out = append(out, answer{
			ok:      r.Status == frame.StatusOK,
			hops:    int(r.Hops),
			cost:    r.Cost,
			optimal: r.Optimal,
		})
	}
	return out, nil
}

func (t *tcpClient) close() { t.conn.Close() }

// ---- HTTP/JSON ----

type httpClient struct {
	c      *http.Client
	url    string
	scheme string
	body   bytes.Buffer
}

func newHTTPClient(addr, scheme string) *httpClient {
	return &httpClient{
		c: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   opTimeout,
		},
		url:    "http://" + addr + "/route",
		scheme: scheme,
	}
}

type httpRouteResponse struct {
	Hops    int     `json:"hops"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
}

func (h *httpClient) op(pairs [][2]int, out []answer) ([]answer, error) {
	for _, p := range pairs {
		h.body.Reset()
		fmt.Fprintf(&h.body, `{"scheme":%q,"src":%d,"dst":%d,"omit_path":true}`, h.scheme, p[0], p[1])
		resp, err := h.c.Post(h.url, "application/json", &h.body)
		if err != nil {
			return out, err
		}
		var r httpRouteResponse
		ok := resp.StatusCode == http.StatusOK
		if ok {
			ok = json.NewDecoder(resp.Body).Decode(&r) == nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = append(out, answer{ok: ok, hops: r.Hops, cost: r.Cost, optimal: r.Optimal})
	}
	return out, nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// ---- closed loop ----

// opRecord is one completed operation of a closed-loop window.
type opRecord struct {
	end      time.Duration // completion, from the window's start
	latUS    float64       // client-side latency
	answered int           // pairs answered without error
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	wall      time.Duration
	attempted int64
	failed    int64
	ops       []opRecord
}

func (r loopResult) latUS() []float64 {
	out := make([]float64, len(r.ops))
	for i, o := range r.ops {
		out[i] = o.latUS
	}
	return out
}

// opHook, when set, is called after every operation with its start and
// end, and its start's offset into the window (the traced window
// records op spans through it).
type opHook func(conn int, start, end time.Time, offset time.Duration)

// closedLoop drives every client from start until start+d: each sends
// its next operation only after the previous one is answered. A
// transport error ends that connection and counts its operation's
// unanswered pairs as failed, like a refused request or a timeout.
func closedLoop(clients []client, streams []stream, batch int, start time.Time, d time.Duration, hook opHook) loopResult {
	type connOut struct {
		attempted, failed int64
		ops               []opRecord
	}
	outs := make([]connOut, len(clients))
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.ops = make([]opRecord, 0, 1<<16)
			pairs := make([][2]int, batch)
			ans := make([]answer, 0, batch)
			for {
				for j := range pairs {
					pairs[j] = streams[i].next()
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				var err error
				ans, err = clients[i].op(pairs, ans[:0])
				t1 := time.Now()
				o.attempted += int64(batch)
				ok := 0
				for _, a := range ans {
					if a.ok {
						ok++
					}
				}
				o.failed += int64(batch - ok)
				if err != nil {
					return
				}
				o.ops = append(o.ops, opRecord{end: t1.Sub(start), latUS: float64(t1.Sub(t0).Nanoseconds()) / 1e3, answered: ok})
				if hook != nil {
					hook(i, t0, t1, t0.Sub(start))
				}
			}
		}(i)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		res.ops = append(res.ops, o.ops...)
	}
	return res
}

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
	"compactrouting/internal/server"
)

// allocCounter reads the process's allocation counters.
func allocCounter() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func usBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }

// replayQueries sends stream queries through each serving layer's
// public call, one span per call. Passes that share state with the
// engine (its caches, the lazy oracle's rows) each take the next
// replayQueries pairs of one replay stream, so no pass is handed pairs
// an earlier pass just warmed.
func (t *tracedRun) replayQueries(eng *server.Engine) error {
	root := t.rec.begin(0, "replay.queries")
	defer t.rec.end(root)
	st := newStream(t.w, t.in.n, subSeed(t.seed, "replay"), 0)
	next := func() [][2]int {
		ps := make([][2]int, replayQueries)
		for i := range ps {
			ps[i] = st.next()
		}
		return ps
	}

	// Engine.RouteLite: the framed plane's route call and its flat cache.
	pairs := next()
	results := make([]frame.RouteResult, len(pairs))
	hitUS := make([]float64, 0, len(pairs))
	missUS := make([]float64, 0, len(pairs))
	pass := t.rec.begin(root, "pass.server.RouteLite")
	m0, b0 := allocCounter()
	for i, p := range pairs {
		s := time.Now()
		results[i] = eng.RouteLite(0, p[0], p[1])
		e := time.Now()
		t.rec.add(pass, "server.RouteLite", s, e)
		if results[i].Cached {
			hitUS = append(hitUS, usBetween(s, e))
		} else {
			missUS = append(missUS, usBetween(s, e))
		}
	}
	m1, b1 := allocCounter()
	t.rec.end(pass)
	for i, r := range results {
		if r.Status != frame.StatusOK {
			return fmt.Errorf("replay RouteLite %v: status %d", pairs[i], r.Status)
		}
	}
	t.layers["server.lite_us"] = mean(append(append([]float64(nil), hitUS...), missUS...))
	t.layers["server.lite_hit_us"] = meanOrZero(hitUS)
	t.layers["server.lite_miss_us"] = meanOrZero(missUS)
	if t.w.proto == "tcp" {
		t.layers["server.allocs_per_query"] = float64(m1-m0) / float64(len(pairs))
		t.layers["server.alloc_bytes_per_query"] = float64(b1-b0) / float64(len(pairs))
	}

	if err := t.replayFrames(root, pairs, results); err != nil {
		return err
	}

	// sim.RouteLite on the replayed scheme: the walk alone.
	pairs = next()
	var walkUS, hops []float64
	pass = t.rec.begin(root, "pass.sim.RouteLite")
	for _, p := range pairs {
		s := time.Now()
		r := t.walk(p[0], p[1])
		e := time.Now()
		t.rec.add(pass, "sim.RouteLite", s, e)
		if r.Err != nil {
			return fmt.Errorf("replay sim.RouteLite %v: %w", p, r.Err)
		}
		walkUS = append(walkUS, usBetween(s, e))
		hops = append(hops, float64(r.Hops))
	}
	t.rec.end(pass)
	t.layers["sim.walk_us"] = mean(walkUS)
	t.layers["sim.hops_per_query"] = mean(hops)

	// Distancer.Dist on the engine's backend: the optimum every miss pays.
	pairs = next()
	var distUS []float64
	pass = t.rec.begin(root, "pass.metric.Dist")
	for _, p := range pairs {
		s := time.Now()
		t.oracle.Dist(p[0], p[1])
		e := time.Now()
		t.rec.add(pass, "metric.Dist", s, e)
		distUS = append(distUS, usBetween(s, e))
	}
	t.rec.end(pass)
	t.layers["metric.dist_us"] = mean(distUS)

	// Engine.Route: the HTTP plane's route call and its LRU.
	pairs = next()
	var routeUS []float64
	pass = t.rec.begin(root, "pass.server.Route")
	for _, p := range pairs {
		s := time.Now()
		_, err := eng.Route(t.w.scheme, p[0], p[1])
		e := time.Now()
		t.rec.add(pass, "server.Route", s, e)
		if err != nil {
			return fmt.Errorf("replay Route %v: %w", p, err)
		}
		routeUS = append(routeUS, usBetween(s, e))
	}
	t.rec.end(pass)
	t.layers["server.route_us"] = mean(routeUS)

	// Engine.Handler().ServeHTTP on POST /route, no socket. Requests and
	// recorders are made before the pass so its allocation counts are
	// the handler's own.
	pairs = next()
	reqs := make([]*http.Request, len(pairs))
	recs := make([]*httptest.ResponseRecorder, len(pairs))
	for i, p := range pairs {
		body := fmt.Sprintf(`{"scheme":%q,"src":%d,"dst":%d,"omit_path":true}`, t.w.scheme, p[0], p[1])
		reqs[i] = httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader([]byte(body)))
		recs[i] = httptest.NewRecorder()
	}
	h := eng.Handler()
	httpUS := make([]float64, 0, len(pairs))
	pass = t.rec.begin(root, "pass.server.ServeHTTP")
	m0, b0 = allocCounter()
	for i := range pairs {
		s := time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		e := time.Now()
		t.rec.add(pass, "server.ServeHTTP", s, e)
		httpUS = append(httpUS, usBetween(s, e))
	}
	m1, b1 = allocCounter()
	t.rec.end(pass)
	for i, r := range recs {
		if r.Code != http.StatusOK {
			return fmt.Errorf("replay ServeHTTP %v: status %d", pairs[i], r.Code)
		}
	}
	t.layers["server.http_us"] = mean(httpUS)
	if t.w.proto == "http" {
		t.layers["server.allocs_per_query"] = float64(m1-m0) / float64(len(pairs))
		t.layers["server.alloc_bytes_per_query"] = float64(b1-b0) / float64(len(pairs))
	}
	return nil
}

// replayFrames runs the frame codecs a framed round trip costs, both
// ends, on the RouteLite pass's pairs and answers, in frames of the
// workload's batch size, and checks each decode against what was
// encoded.
func (t *tracedRun) replayFrames(root int, pairs [][2]int, results []frame.RouteResult) error {
	var (
		w              bits.Writer
		rd             bits.Reader
		req, gotReq    frame.RouteRequest
		resp, gotResp  frame.RouteResponse
		reqOut         []byte
		respOut        []byte
		encUS, decUS   float64
		frames, nbytes int
		err            error
	)
	pass := t.rec.begin(root, "pass.frame")
	defer t.rec.end(pass)
	for i := 0; i < len(pairs); i += t.w.batch {
		j := min(i+t.w.batch, len(pairs))
		req.Pairs = req.Pairs[:0]
		for _, p := range pairs[i:j] {
			req.Pairs = append(req.Pairs, frame.Pair{Src: int32(p[0]), Dst: int32(p[1])})
		}
		resp.Results = append(resp.Results[:0], results[i:j]...)
		id := uint64(frames + 1)

		s0 := time.Now()
		w.Reset()
		req.Encode(&w)
		reqOut, err = frame.AppendFrame(reqOut[:0], frame.TypeRouteRequest, id, w.Bytes())
		s1 := time.Now()
		if err == nil {
			err = gotReq.DecodeInto(reqOut[frame.HeaderSize:], &rd)
		}
		s2 := time.Now()
		w.Reset()
		resp.Encode(&w)
		if err == nil {
			respOut, err = frame.AppendFrame(respOut[:0], frame.TypeRouteResponse, id, w.Bytes())
		}
		s3 := time.Now()
		if err == nil {
			err = gotResp.DecodeInto(respOut[frame.HeaderSize:], &rd)
		}
		s4 := time.Now()
		if err != nil {
			return fmt.Errorf("replay frame codec: %w", err)
		}
		t.rec.add(pass, "frame.request.encode", s0, s1)
		t.rec.add(pass, "frame.request.decode", s1, s2)
		t.rec.add(pass, "frame.response.encode", s2, s3)
		t.rec.add(pass, "frame.response.decode", s3, s4)
		if !equalFrames(req, gotReq, resp, gotResp) {
			return fmt.Errorf("replay frame codec: frame %d does not round-trip", id)
		}
		encUS += usBetween(s0, s1) + usBetween(s2, s3)
		decUS += usBetween(s1, s2) + usBetween(s3, s4)
		nbytes += len(reqOut) + len(respOut)
		frames++
	}
	t.layers["frame.encode_us"] = encUS / float64(frames)
	t.layers["frame.decode_us"] = decUS / float64(frames)
	t.layers["frame.bytes_per_query"] = float64(nbytes) / float64(len(pairs))
	return nil
}

func equalFrames(req, gotReq frame.RouteRequest, resp, gotResp frame.RouteResponse) bool {
	if req.Scheme != gotReq.Scheme || len(req.Pairs) != len(gotReq.Pairs) || len(resp.Results) != len(gotResp.Results) {
		return false
	}
	for i := range req.Pairs {
		if req.Pairs[i] != gotReq.Pairs[i] {
			return false
		}
	}
	for i := range resp.Results {
		if resp.Results[i] != gotResp.Results[i] {
			return false
		}
	}
	return true
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

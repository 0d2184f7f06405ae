package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// MaxBatchPairs bounds one /route/batch request.
const MaxBatchPairs = 100000

// RouteRequest is the POST /route body.
type RouteRequest struct {
	Scheme string `json:"scheme"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	// OmitPath drops the path from the response (headers and counts
	// are kept); useful for stretch-only clients.
	OmitPath bool `json:"omit_path,omitempty"`
}

// BatchRequest is the POST /route/batch body.
type BatchRequest struct {
	Scheme string   `json:"scheme"`
	Pairs  [][2]int `json:"pairs"`
	// IncludePaths adds the full path to every result (off by default:
	// a 1000-pair batch of long walks is a large response).
	IncludePaths bool `json:"include_paths,omitempty"`
}

// BatchResponse is the POST /route/batch response body.
type BatchResponse struct {
	Scheme  string        `json:"scheme"`
	Summary BatchSummary  `json:"summary"`
	Results []RouteResult `json:"results"`
}

// ReloadRequest is the POST /reload body.
type ReloadRequest struct {
	Seed int64 `json:"seed"`
}

// SchemesResponse is the GET /schemes response body.
type SchemesResponse struct {
	Graph   GraphInfo    `json:"graph"`
	Schemes []SchemeInfo `json:"schemes"`
}

// Handler returns the engine's HTTP API:
//
//	POST /route        one s->t query (?trace=1 attaches the hop log)
//	POST /route/batch  many pairs, fanned over the worker pool
//	GET  /schemes      per-scheme table/label bit accounting
//	GET  /metrics      live counters, latency/stretch histograms, cache stats
//	POST /reload       regenerate the network (new seed), drop the cache
//	GET  /healthz      liveness probe
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", e.instrument(e.handleRoute))
	mux.HandleFunc("/route/batch", e.instrument(e.handleBatch))
	mux.HandleFunc("/schemes", e.instrument(e.handleSchemes))
	mux.HandleFunc("/metrics", e.instrument(e.handleMetrics))
	mux.HandleFunc("/reload", e.instrument(e.handleReload))
	mux.HandleFunc("/healthz", e.instrument(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	return mux
}

// instrument wraps a handler with the request counter and the in-flight
// gauge.
func (e *Engine) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e.met.requests.Add(1)
		e.met.inFlight.Add(1)
		defer e.met.inFlight.Add(-1)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (e *Engine) badRequest(w http.ResponseWriter, format string, args ...any) {
	e.met.badRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request-body byte limits, enforced before JSON decoding so an
// oversized request is rejected without buffering hundreds of MB (the
// MaxBatchPairs check alone would only run after a full decode).
const (
	maxRouteBody = 1 << 20            // single-query and reload bodies
	maxBatchBody = MaxBatchPairs * 32 // ~32 bytes per encoded pair
)

func decode(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (e *Engine) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		e.badRequest(w, "POST only")
		return
	}
	var req RouteRequest
	if err := decode(w, r, &req, maxRouteBody); err != nil {
		e.badRequest(w, "bad request body: %v", err)
		return
	}
	// With omit_path the query takes the shape-only route the TCP plane
	// answers with; a traced query records its walk either way.
	wantTrace := r.URL.Query().Get("trace") == "1"
	res, err := e.answer(req.Scheme, req.Src, req.Dst, !req.OmitPath, wantTrace)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	if req.OmitPath {
		res.Path = nil
	}
	writeJSON(w, http.StatusOK, res)
}

func (e *Engine) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		e.badRequest(w, "POST only")
		return
	}
	var req BatchRequest
	if err := decode(w, r, &req, maxBatchBody); err != nil {
		e.badRequest(w, "bad request body: %v", err)
		return
	}
	if len(req.Pairs) == 0 {
		e.badRequest(w, "empty pairs")
		return
	}
	if len(req.Pairs) > MaxBatchPairs {
		e.badRequest(w, "%d pairs exceeds limit %d", len(req.Pairs), MaxBatchPairs)
		return
	}
	start := time.Now()
	results, sum := e.routeBatch(req.Scheme, req.Pairs, req.IncludePaths)
	e.met.batchLatency.Observe(time.Since(start))
	e.met.batchRoutes.Add(uint64(len(req.Pairs)))
	if !req.IncludePaths {
		// A pair answered from a way filled by a path query carries
		// the path; the response still leaves it out.
		for i := range results {
			results[i].Path = nil
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Scheme: req.Scheme, Summary: sum, Results: results})
}

func (e *Engine) handleSchemes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		e.badRequest(w, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, SchemesResponse{Graph: e.Graph(), Schemes: e.Schemes()})
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		e.badRequest(w, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, e.Metrics())
}

func (e *Engine) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		e.badRequest(w, "POST only")
		return
	}
	var req ReloadRequest
	if err := decode(w, r, &req, maxRouteBody); err != nil {
		e.badRequest(w, "bad request body: %v", err)
		return
	}
	start := time.Now()
	if err := e.Reload(req.Seed); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":     e.Graph(),
		"reload_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

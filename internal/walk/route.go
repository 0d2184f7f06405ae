package walk

import (
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
)

// Route drives one delivery through Walk and returns it as the
// core.Route a scheme's RouteToLabel reports: MaxHeaderBits is the
// largest header carried over an edge (the prepared header is not
// counted, so a self-route reports 0), and Fallback whether fallback
// (which may be nil) held for any header a step returned, the arrival
// step's included.
func Route[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int, fallback func(H) bool) (*core.Route, error) {
	rec := routeRecorder[H]{fallback: fallback}
	lr := Walk[H](g, r, src, dst, maxHops, &rec)
	if lr.Err != nil {
		return nil, lr.Err
	}
	return &core.Route{Src: src, Dst: lr.Dst, Path: rec.Path, Cost: lr.Cost, MaxHeaderBits: rec.hopBits, Fallback: rec.fell}, nil
}

// routeRecorder is Route's Observer.
type routeRecorder[H Header] struct {
	Recorder[H]
	hopBits  int
	fallback func(H) bool
	fell     bool
}

// Hop implements Observer.
func (rec *routeRecorder[H]) Hop(at, next int, nh H, headerBits int, w float64) bool {
	rec.hopBits = max(rec.hopBits, headerBits)
	rec.note(nh)
	return rec.Recorder.Hop(at, next, nh, headerBits, w)
}

// Arrive implements Observer.
func (rec *routeRecorder[H]) Arrive(_ int, h H) { rec.note(h) }

// note marks the route when h reports a fallback.
func (rec *routeRecorder[H]) note(h H) {
	rec.fell = rec.fell || rec.fallback != nil && rec.fallback(h)
}

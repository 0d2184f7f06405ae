package server

import "compactrouting/internal/frame"

// RouteLite answers one binary-plane query: scheme addressed by compile
// order index, result as a wire shape (no path). It is Engine.route
// without a path or trace, so a cache hit or a walk.RouteLite miss
// performs zero heap allocations; TestFramedRoutePathAllocs pins the
// full decode→route→encode cycle at 0 allocs/op for both outcomes.
// Counts, latency and route-shape observations land in the same
// metrics block the HTTP handlers feed, so /metrics aggregates both
// protocols.
//
//determinlint:hotpath
func (e *Engine) RouteLite(schemeIdx, src, dst int) frame.RouteResult {
	res, _, _ := e.route(e.st.Load(), schemeIdx, src, dst, false, false)
	return res
}

// SchemesWire describes the engine for a TypeSchemesResponse frame.
func (e *Engine) SchemesWire() frame.SchemesResponse {
	st := e.st.Load()
	return frame.SchemesResponse{
		N:          st.nw.N(),
		Generation: st.gen,
		Names:      append([]string(nil), st.order...),
	}
}

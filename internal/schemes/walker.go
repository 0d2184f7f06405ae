package schemes

import (
	"compactrouting/internal/core"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/trace"
	"compactrouting/internal/walk"
)

// Walker is a scheme's walk.Router with its header type erased. Every
// destination is a node id; the walker translates it into the scheme's
// address. All walks run the one walk.Walk hop loop, so a traced, a
// fault-free or a concurrent route is byte-identical to a shape-only one.
type Walker interface {
	// Lite is walk.RouteLite: the shape of the walk, allocation-free.
	//
	//determinlint:hotpath
	Lite(src, dst int) walk.LiteResult
	// Traced is walk.RouteOnceTraced: the path, and the hop log when tr
	// is non-nil.
	Traced(src, dst int, tr *trace.Trace) walk.Result
	// Deliver is faultsim.DeliverTraced: one delivery under the
	// injector's faults with the reliability layer's retries.
	Deliver(src, dst int, in *faultsim.Injector, rel faultsim.Reliability, id uint64, tr *trace.Trace) faultsim.Result
	// Run is walk.RunTraced over node-id pairs: one goroutine per node.
	// traces may be nil or len(pairs) long.
	Run(pairs [][2]int, traces []*trace.Trace) []walk.Result
	// Route is the scheme's RouteToLabel or RouteToName: one walk.Route
	// over the same step function, reporting the path and the largest
	// header carried over an edge.
	Route(src, dst int) (*core.Route, error)
}

// walker is the one Walker implementation, generic over the header.
type walker[H walk.Header] struct {
	g *graph.Graph
	r walk.Router[H]
	// addr maps a node id to the scheme's address.
	//
	//determinlint:hotpath
	addr    func(v int) int
	seq     func(src, addr int) (*core.Route, error)
	maxHops int
}

// Lite implements Walker.
//
//determinlint:hotpath
func (w *walker[H]) Lite(src, dst int) walk.LiteResult {
	return walk.RouteLite(w.g, w.r, src, w.addr(dst), w.maxHops)
}

// Traced implements Walker.
func (w *walker[H]) Traced(src, dst int, tr *trace.Trace) walk.Result {
	return walk.RouteOnceTraced(w.g, w.r, src, w.addr(dst), w.maxHops, tr)
}

// Deliver implements Walker.
func (w *walker[H]) Deliver(src, dst int, in *faultsim.Injector, rel faultsim.Reliability, id uint64, tr *trace.Trace) faultsim.Result {
	return faultsim.DeliverTraced(w.g, w.r, src, w.addr(dst), w.maxHops, in, rel, id, tr)
}

// Run implements Walker.
func (w *walker[H]) Run(pairs [][2]int, traces []*trace.Trace) []walk.Result {
	ds := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		ds[i] = walk.Delivery{Src: p[0], Dst: w.addr(p[1])}
	}
	return walk.RunTraced(w.g, w.r, ds, w.maxHops, traces)
}

// Route implements Walker.
func (w *walker[H]) Route(src, dst int) (*core.Route, error) {
	return w.seq(src, w.addr(dst))
}

package sim

import (
	"fmt"

	"compactrouting/internal/graph"
	"compactrouting/internal/trace"
)

// Observer watches a Walk hop by hop. It sees the typed header, so
// nothing is boxed on the way to it, and it may veto a hop — the fault
// layer's drop. Recording the path, recording a trace and injecting
// faults are all observers of the one hop loop.
type Observer[H Header] interface {
	// Begin is called once Prepare has succeeded, with the source and
	// the initial header's size. Returning false drops the packet at
	// its source.
	//
	//determinlint:hotpath
	Begin(src, headerBits int) bool
	// Hop is called for every checked forward — the step function
	// chose next, next is a neighbor of at, and the hop fits the
	// budget — before the walk takes it. nh is the header the packet
	// carries over the edge, headerBits its size and w the edge's
	// weight. Returning false drops the packet before it reaches next.
	//
	//determinlint:hotpath
	Hop(at, next int, nh H, headerBits int, w float64) bool
}

// LiteResult is the shape of one walk: where it arrived, how many hops
// it took, what they cost and the largest header en route.
type LiteResult struct {
	Dst           int
	Hops          int
	MaxHeaderBits int
	Cost          float64
	Err           error
	// Dropped reports that the observer vetoed a hop (or the source);
	// Err is nil then.
	Dropped bool
}

// cursor is a walk in flight: the node holding the packet, the header
// it carries and the shape accumulated so far. Walk drives one cursor
// in a loop; Run hands it from node goroutine to node goroutine.
type cursor[H Header] struct {
	at  int
	h   H
	res LiteResult
}

// launch prepares a walk from src toward the address dst. more is false
// when the walk ends before its first hop: Prepare failed (err) or the
// observer dropped the packet at its source.
//
//determinlint:hotpath
func launch[H Header](r Router[H], src, dst int, obs Observer[H]) (c cursor[H], more bool, err error) {
	h, err := r.PrepareHeader(dst)
	if err != nil {
		return c, false, err
	}
	c = cursor[H]{at: src, h: h}
	c.res.MaxHeaderBits = h.Bits()
	if obs != nil && !obs.Begin(src, c.res.MaxHeaderBits) {
		c.res.Dropped = true
		return c, false, nil
	}
	return c, true, nil
}

// advance performs one hop at c.at: the step function's decision, then
// the checks every driver shares — step error, arrival, the hop budget
// (a walk may take at most maxHops hops; the arrival step is free),
// adjacency — the observer's veto, and the accumulation. more is false
// once the walk is over: arrived (c.res.Dst set), dropped
// (c.res.Dropped) or failed (err).
//
// With an observer attached, errors carry the node they happened at,
// as RouteOnce and Run have always reported them; a bare walk returns
// the step function's error and the singleton ErrNonNeighbor as they
// are, so it allocates nothing.
//
//determinlint:hotpath
func (c *cursor[H]) advance(g *graph.Graph, r Router[H], maxHops int, obs Observer[H]) (more bool, err error) {
	next, nh, arrived, err := r.Step(c.at, c.h)
	if err != nil {
		if obs != nil {
			return false, fmt.Errorf("sim: step at %d: %w", c.at, err)
		}
		return false, err
	}
	if arrived {
		c.res.Dst = c.at
		return false, nil
	}
	if c.res.Hops >= maxHops {
		return false, HopLimitError(maxHops)
	}
	w, ok := g.NeighborWeight(c.at, next)
	if !ok {
		if obs != nil {
			return false, fmt.Errorf("sim: step at %d forwarded to non-neighbor %d", c.at, next)
		}
		return false, ErrNonNeighbor
	}
	b := nh.Bits()
	if obs != nil && !obs.Hop(c.at, next, nh, b, w) {
		c.res.Dropped = true
		return false, nil
	}
	if b > c.res.MaxHeaderBits {
		c.res.MaxHeaderBits = b
	}
	c.h = nh
	c.res.Hops++
	c.res.Cost += w
	c.at = next
	return true, nil
}

// Walk drives one delivery from src to the address dst (a label or a
// name, matching the Router) through the router's step function. It is
// the only loop over Step outside the schemes' own sequential
// evaluators (RouteToLabel, RouteToName). maxHops <= 0 selects the 8n
// default.
//
// obs may be nil: the walk then records only its shape and allocates
// nothing, which is what the binary serving plane pins at 0 allocs/op.
// Hops are checked with the binary-search NeighborWeight, which returns
// EdgeWeight's weight on every graph (graph.Builder deduplicates edges
// and sorts adjacency).
//
//determinlint:hotpath
func Walk[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int, obs Observer[H]) LiteResult {
	if maxHops <= 0 {
		maxHops = 8 * g.N()
	}
	c, more, err := launch(r, src, dst, obs)
	for more {
		more, err = c.advance(g, r, maxHops, obs)
	}
	c.res.Err = err
	return c.res
}

// RouteLite is Walk without an observer: the shape of the walk, never
// the path slice or a trace. It is the zero-allocation route the binary
// serving plane answers with (internal/frame responses carry no paths).
//
//determinlint:hotpath
func RouteLite[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int) LiteResult {
	return Walk[H](g, r, src, dst, maxHops, nil)
}

// Recorder is the Observer behind RouteOnce and Run: it records the
// walk's node sequence and, when Trace is non-nil, one trace.Hop per
// forward, classified via trace.Phased.
type Recorder[H Header] struct {
	Path  []int
	Trace *trace.Trace
}

// Begin implements Observer: it starts the path at src and resets the
// trace.
func (rec *Recorder[H]) Begin(src, headerBits int) bool {
	rec.Path = append(rec.Path[:0], src)
	if rec.Trace != nil {
		rec.Trace.Begin(int32(src), int32(headerBits))
	}
	return true
}

// Hop implements Observer: it extends the path and logs the hop.
func (rec *Recorder[H]) Hop(at, next int, nh H, headerBits int, w float64) bool {
	if rec.Trace != nil {
		rec.Trace.Hops = append(rec.Trace.Hops, trace.Hop{
			From:       int32(at),
			To:         int32(next),
			Phase:      PhaseOf(nh),
			HeaderBits: int32(headerBits),
			Dist:       w,
		})
	}
	rec.Path = append(rec.Path, next)
	return true
}

// Result assembles the Result of the walk src -> lr.Dst this recorder
// observed. A walk whose Prepare failed never began, and still leaves
// a reset trace.
func (rec *Recorder[H]) Result(src int, lr LiteResult) Result {
	if rec.Trace != nil {
		if rec.Path == nil {
			rec.Trace.Begin(int32(src), 0)
		} else if lr.Err == nil && !lr.Dropped {
			rec.Trace.Dst = int32(lr.Dst)
		}
	}
	return Result{Src: src, Dst: lr.Dst, Path: rec.Path, Cost: lr.Cost, MaxHeaderBits: lr.MaxHeaderBits, Err: lr.Err}
}

// errNonNeighbor is allocated once: a bare walk must not construct
// error values per call.
type errNonNeighbor struct{}

func (errNonNeighbor) Error() string { return "sim: step forwarded to non-neighbor" }

// ErrNonNeighbor reports a step function forwarding to a node that is
// not adjacent to the current one.
var ErrNonNeighbor error = errNonNeighbor{}

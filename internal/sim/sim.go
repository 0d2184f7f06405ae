// Package sim runs routing schemes under a concurrent message-passing
// model: every node is a goroutine owning only its local state, packets
// are messages between neighbor mailboxes, and a forwarding decision is
// a pure step function of (node table, packet header).
//
// The sequential traces produced by the schemes' RouteTo* methods
// already make only local decisions, but a central loop drives them;
// this simulator removes the loop. Running the same scheme both ways
// and getting identical paths demonstrates that no hidden shared state
// leaks between hops — the distributed-correctness claim behind every
// compact routing result.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package sim

import (
	"fmt"
	"sync"

	"compactrouting/internal/graph"
	"compactrouting/internal/trace"
)

// Header is an opaque packet header with a measurable size.
type Header interface {
	// Bits is called per hop on the serving hot path; implementations
	// must not allocate.
	//
	//determinlint:hotpath
	Bits() int
}

// Router is a routing scheme factored into per-node step functions;
// every scheme implements it directly. PrepareHeader and Step sit on
// RouteLite's zero-allocation serving path, so implementations bound to
// the serving plane must not allocate per call (the hotpath lint rule
// holds RouteLite to that, and the server's AllocsPerRun pins hold the
// implementations to it).
type Router[H Header] interface {
	// PrepareHeader returns the initial header for a delivery addressed
	// by dst (a label or a name, depending on the scheme).
	//
	//determinlint:hotpath
	PrepareHeader(dst int) (H, error)
	// Step performs one local forwarding decision at node: the next
	// hop and updated header, or arrived == true.
	//
	//determinlint:hotpath
	Step(node int, h H) (next int, nh H, arrived bool, err error)
}

// Result is the outcome of one simulated delivery.
type Result struct {
	Src, Dst int
	// Path is the walk taken (Path[0] == Src).
	Path []int
	// Cost is the summed edge weight.
	Cost float64
	// MaxHeaderBits is the largest header en route.
	MaxHeaderBits int
	// Err reports a routing failure (nil on delivery).
	Err error
}

// packet is an in-flight message: a walk's cursor plus its recorder.
// Exactly one goroutine holds the packet (and hence the recorder and
// its trace) at a time, and mailbox sends order the hand-offs, so
// neither needs a lock.
type packet[H Header] struct {
	id int
	cursor[H]
	rec *Recorder[H]
}

// PhaseOf classifies a header for the trace layer; headers that do not
// implement trace.Phased record as PhaseDirect. The interface
// conversion boxes the header, so callers must only reach this on
// traced paths.
func PhaseOf[H Header](h H) trace.Phase {
	if p, ok := any(h).(trace.Phased); ok {
		return p.TracePhase()
	}
	return trace.PhaseDirect
}

// Delivery is one requested route: from Src to the node addressed by
// Dst (label or name, matching the Router).
type Delivery struct {
	Src, Dst int
}

// HopLimitError is the error a delivery fails with when its walk would
// exceed the hop budget. RouteOnce, Run and internal/faultsim all use
// it, so the budget semantics are pinned in one place: a walk may take
// at most maxHops hops (the arrival step at the final node is free),
// and the packet fails when a further forward would be hop maxHops+1.
func HopLimitError(maxHops int) error {
	return fmt.Errorf("sim: packet exceeded hop budget %d", maxHops)
}

// RouteOnce drives one delivery through Walk with a path recorder: the
// sequential, path-carrying counterpart of Run, which executes the
// exact same per-hop function one goroutine per node. A route agreed on
// by the two is a pure function of (tables, header).
//
// dst is a label or a name, matching the Router. maxHops <= 0 selects
// the same default as Run.
func RouteOnce[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int) Result {
	return RouteOnceTraced(g, r, src, dst, maxHops, nil)
}

// RouteOnceTraced is RouteOnce with an optional trace: when tr is
// non-nil it is reset (Trace.Begin) and filled with one hop record per
// forward, classified via trace.Phased. A nil tr takes the exact
// RouteOnce path (pinned by TestRouteOnceTracingDisabledAllocs).
//
// The trace is a pure function of (tables, src, dst): hop distances
// are accumulated in walk order, so trace.Cost() is bit-identical to
// Result.Cost, and re-running the same delivery yields byte-identical
// Marshal output.
func RouteOnceTraced[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int, tr *trace.Trace) Result {
	rec := Recorder[H]{Trace: tr}
	return rec.Result(src, Walk[H](g, r, src, dst, maxHops, &rec))
}

// Run executes the deliveries concurrently over the graph: one
// goroutine per node, one message per packet hop. It blocks until all
// packets arrive or fail, and returns results indexed like deliveries.
//
// Packets that exceed maxHops (pass <= 0 for the 8n default) fail
// rather than loop forever.
func Run[H Header](g *graph.Graph, r Router[H], deliveries []Delivery, maxHops int) []Result {
	return RunTraced(g, r, deliveries, maxHops, nil)
}

// RunTraced is Run with optional per-delivery traces: traces may be
// nil (no tracing) or len(deliveries) long, with nil entries for
// deliveries that should not be traced. Each node goroutine applies
// Walk's per-hop function to the packets it receives, so there is no
// second copy of the hop loop, and a packet's recorder travels with the
// packet: traced concurrent runs stay race-free and produce the same
// bytes as RouteOnceTraced.
func RunTraced[H Header](g *graph.Graph, r Router[H], deliveries []Delivery, maxHops int, traces []*trace.Trace) []Result {
	n := g.N()
	if maxHops <= 0 {
		maxHops = 8 * n
	}
	results := make([]Result, len(deliveries))
	inbox := make([]chan packet[H], n)
	for i := range inbox {
		inbox[i] = make(chan packet[H], 8)
	}
	var wg sync.WaitGroup // outstanding packets
	var nodeWG sync.WaitGroup
	done := make(chan struct{})

	finish := func(p packet[H], err error) {
		p.res.Err = err
		results[p.id] = p.rec.Result(deliveries[p.id].Src, p.res)
		wg.Done()
	}

	// forward delivers a packet to a mailbox without blocking the node
	// goroutine (mailboxes are bounded; a detached send avoids deadlock
	// when many packets converge on one node). The detached send must
	// also select on done: a bare `inbox[to] <- p` blocks forever if the
	// run winds down while the mailbox is full, leaking the goroutine.
	forward := func(p packet[H]) {
		select {
		case inbox[p.at] <- p:
		default:
			go func() {
				select {
				case inbox[p.at] <- p:
				case <-done:
				}
			}()
		}
	}

	node := func(self int) {
		defer nodeWG.Done()
		for {
			select {
			case <-done:
				return
			case p := <-inbox[self]:
				if more, err := p.advance(g, r, maxHops, p.rec); !more {
					finish(p, err)
					continue
				}
				forward(p)
			}
		}
	}
	nodeWG.Add(n)
	for v := 0; v < n; v++ {
		go node(v)
	}

	wg.Add(len(deliveries))
	for id, d := range deliveries {
		rec := &Recorder[H]{}
		if traces != nil {
			rec.Trace = traces[id]
		}
		c, more, err := launch[H](r, d.Src, d.Dst, rec)
		p := packet[H]{id: id, cursor: c, rec: rec}
		if !more {
			finish(p, err)
			continue
		}
		forward(p)
	}
	wg.Wait()
	close(done)
	nodeWG.Wait()
	return results
}

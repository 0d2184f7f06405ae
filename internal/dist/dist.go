// Package dist is the in-network construction layer: a synchronous
// round-based (CONGEST-style) message-passing simulator in which every
// node starts knowing only its own id and local adjacency and exchanges
// size-bounded messages with its graph neighbors, plus the distributed
// protocols that build this repository's routing substrates on top of
// it — shortest-path-tree election with subtree aggregation feeding
// internal/treeroute (BuildTree), and the full labeled Simple scheme
// whose per-node tables come out of the protocol instead of the
// omniscient APSP oracle (BuildSimple).
//
// Rounds, delivered messages and message bits are first-class costs:
// the engine accounts them the way internal/bits accounts table bits,
// and `routebench -exp dist` reports them next to the resulting table
// sizes (construction cost vs. table quality, following Elkin–Neiman's
// distributed constructions of compact routing schemes).
//
// Every tie-break in the protocols reproduces the oracle's exactly
// (min-id among equal-cost next hops, greedy-by-id net election,
// ascending-id netting-tree DFS), so tables built in-network are
// byte-identical to oracle-built ones — asserted across seeds and graph
// families by the equivalence suite.
//
// Faults: the engine can run its link layer through a
// faultsim.FaultPlan. Each transmission's fate is a pure hash of
// (plan seed, transmission id, attempt); lost messages are
// retransmitted the next round, so construction over lossy links
// converges to the same tables at the cost of extra rounds.
//
// Determinism: delivery order is serial in sender id, handlers run over
// the shared internal/par pool but write only state owned by their
// node, and no wall-clock value is consulted, so a build is
// byte-identical at GOMAXPROCS=1 and 8 (see parallel_test.go). This
// package is bound by the repo's deterministic ruleset: its outputs
// must be a pure function of explicit seeds (determinlint enforces the
// source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package dist

import (
	"errors"
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/par"
)

// DefaultMaxMsgBits is the CONGEST message bound the engine enforces
// when Config.MaxMsgBits is zero: O(log n) words. Protocols batch
// their announcements up to this size.
const DefaultMaxMsgBits = 512

// Config parameterizes an engine run.
type Config struct {
	// MaxMsgBits bounds the size of a single message in bits
	// (DefaultMaxMsgBits when zero). Send fails the run if a protocol
	// exceeds it.
	MaxMsgBits int
	// MaxRounds aborts a protocol that fails to quiesce (40n+512 when
	// zero; a permanent outage under a FaultPlan trips it).
	MaxRounds int
	// Plan, when non-nil, drives every link transmission through a
	// seeded fault injector; lost messages are retransmitted next round.
	Plan *faultsim.FaultPlan
}

// Counters is the engine's cost accounting. All figures are exact and
// deterministic for a given (graph, protocol, config).
type Counters struct {
	// Rounds is the number of synchronous rounds in which at least one
	// transmission was attempted, summed over all protocol phases.
	Rounds int64 `json:"rounds"`
	// Phases is the number of protocol phases run.
	Phases int64 `json:"phases"`
	// Messages is the number of delivered messages.
	Messages int64 `json:"messages"`
	// Drops is the number of transmissions lost to the fault plan (each
	// one is retransmitted in the next round).
	Drops int64 `json:"drops"`
	// TotalBits is the total bits across all transmissions, delivered
	// and dropped.
	TotalBits int64 `json:"total_bits"`
	// MaxMsgBits is the largest single message observed.
	MaxMsgBits int64 `json:"max_msg_bits"`
	// MaxEdgeRoundBits is the largest bit volume any directed edge
	// carried in one round — the CONGEST congestion measure.
	MaxEdgeRoundBits int64 `json:"max_edge_round_bits"`
}

// Proto is a distributed construction protocol. The engine runs phases
// until Done reports completion; within a phase it delivers staged
// messages in synchronous rounds until no transmission is pending.
//
// Begin and Flush are invoked once per node (Begin at phase start,
// Flush after each round's deliveries); Recv once per delivered
// message. All three run in parallel across nodes and must write only
// state owned by their node (the internal/par contract). Done is
// called serially between phases with the index of the phase about to
// start.
type Proto interface {
	Done(phase int) bool
	Begin(phase int, c *Ctx)
	Recv(phase int, c *Ctx, from int, m *Msg)
	Flush(phase int, c *Ctx)
}

// Ctx is a node's handle into the engine: its identity, its local
// adjacency, and its outbox. A protocol sees nothing else.
type Ctx struct {
	e *engine
	v int32
}

// Node returns the node this context belongs to.
func (c *Ctx) Node() int { return int(c.v) }

// Neighbors returns the node's adjacency list (sorted by neighbor id).
// The slice must not be modified.
func (c *Ctx) Neighbors() []graph.Edge { return c.e.g.Neighbors(int(c.v)) }

// EdgeWeight returns the weight of the edge to neighbor u; it fails the
// run if u is not adjacent.
func (c *Ctx) EdgeWeight(u int) float64 {
	w, ok := c.e.g.NeighborWeight(int(c.v), u)
	if !ok {
		c.Fail(fmt.Errorf("dist: node %d has no edge to %d", c.v, u))
	}
	return w
}

// Send stages m for delivery to neighbor `to` in the next round. The
// message is serialized immediately (m may be reused) and must respect
// the engine's size bound; sending to a non-neighbor fails the run —
// the engine is the model, so a protocol cannot cheat even by bug.
func (c *Ctx) Send(to int, m *Msg) {
	e := c.e
	if _, ok := e.g.NeighborWeight(int(c.v), to); !ok {
		c.Fail(fmt.Errorf("dist: node %d sent %d-kind to non-neighbor %d", c.v, m.Kind, to))
		return
	}
	var w bits.Writer
	m.Encode(&w)
	if w.Len() > e.maxMsgBits {
		c.Fail(fmt.Errorf("dist: node %d message kind %d is %d bits (bound %d)", c.v, m.Kind, w.Len(), e.maxMsgBits))
		return
	}
	e.stage[c.v] = append(e.stage[c.v], txMsg{to: int32(to), nbit: int32(w.Len()), buf: w.Bytes()})
}

// Fail records a protocol error at this node; the engine aborts the run
// after the current parallel step with the lowest-id node's error.
func (c *Ctx) Fail(err error) {
	if c.e.errs[c.v] == nil {
		c.e.errs[c.v] = err
	}
}

// txMsg is a staged outgoing message.
type txMsg struct {
	to   int32
	nbit int32
	buf  []byte
}

// rxMsg is a delivered message awaiting processing.
type rxMsg struct {
	from int32
	nbit int32
	buf  []byte
}

// txAttempt is an in-flight transmission (staged this round or
// retransmitted after a loss).
type txAttempt struct {
	from, to int32
	nbit     int32
	buf      []byte
	id       uint64 // transmission id, assigned serially
	attempt  uint64
}

// engine is the synchronous round simulator.
type engine struct {
	g          *graph.Graph
	inj        *faultsim.Injector
	maxMsgBits int
	maxRounds  int64

	stage [][]txMsg // per-node outboxes, filled by handlers
	inbox [][]rxMsg // per-node inboxes for the current round
	pend  []txAttempt
	errs  []error
	ctxs  []Ctx

	seq      uint64
	counters Counters
}

func newEngine(g *graph.Graph, cfg Config) *engine {
	e := &engine{
		g:          g,
		maxMsgBits: cfg.MaxMsgBits,
		maxRounds:  int64(cfg.MaxRounds),
		stage:      make([][]txMsg, g.N()),
		inbox:      make([][]rxMsg, g.N()),
		errs:       make([]error, g.N()),
		ctxs:       make([]Ctx, g.N()),
	}
	if e.maxMsgBits <= 0 {
		e.maxMsgBits = DefaultMaxMsgBits
	}
	if e.maxRounds <= 0 {
		e.maxRounds = int64(40*g.N() + 512)
	}
	if cfg.Plan != nil {
		e.inj = faultsim.NewInjector(*cfg.Plan)
	}
	for i := range e.ctxs {
		e.ctxs[i] = Ctx{e: e, v: int32(i)}
	}
	return e
}

// firstErr returns the lowest-id node's recorded error — deterministic
// regardless of which parallel worker failed first.
func (e *engine) firstErr() error {
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// deliver moves staged sends and pending retransmissions into inboxes,
// serially in sender-id order: transmission ids, loss draws and inbox
// orders are therefore identical under every GOMAXPROCS. It returns
// false when nothing was in flight (the phase has quiesced).
func (e *engine) deliver() bool {
	n := e.g.N()
	attempted := false
	var edgeMax int64
	edgeBits := make(map[int64]int64)
	retry := e.pend[:0]
	t := float64(e.counters.Rounds)
	one := func(a txAttempt) {
		attempted = true
		e.counters.TotalBits += int64(a.nbit)
		if int64(a.nbit) > e.counters.MaxMsgBits {
			e.counters.MaxMsgBits = int64(a.nbit)
		}
		k := int64(a.from)*int64(n) + int64(a.to)
		edgeBits[k] += int64(a.nbit)
		if edgeBits[k] > edgeMax {
			edgeMax = edgeBits[k]
		}
		if e.inj != nil && !e.inj.TransmitOK(int(a.from), int(a.to), t, a.id, a.attempt) {
			e.counters.Drops++
			a.attempt++
			retry = append(retry, a)
			return
		}
		e.counters.Messages++
		e.inbox[a.to] = append(e.inbox[a.to], rxMsg{from: a.from, nbit: a.nbit, buf: a.buf})
	}
	// Retransmissions first (they carry the earliest ids), then this
	// round's staged sends in sender-id order.
	pending := e.pend
	for _, a := range pending {
		one(a)
	}
	for v := 0; v < n; v++ {
		for _, m := range e.stage[v] {
			a := txAttempt{from: int32(v), to: m.to, nbit: m.nbit, buf: m.buf, id: e.seq}
			e.seq++
			one(a)
		}
		e.stage[v] = e.stage[v][:0]
	}
	e.pend = retry
	if edgeMax > e.counters.MaxEdgeRoundBits {
		e.counters.MaxEdgeRoundBits = edgeMax
	}
	return attempted
}

// step processes node v's inbox for this round and flushes its batched
// announcements. It runs under par.For; all writes are to v-owned
// state.
func (e *engine) step(p Proto, phase, v int) {
	c := &e.ctxs[v]
	for k := range e.inbox[v] {
		rx := &e.inbox[v][k]
		m, err := DecodeMsg(bits.NewReader(rx.buf, int(rx.nbit)))
		if err != nil {
			c.Fail(fmt.Errorf("dist: node %d inbox decode: %w", v, err))
			return
		}
		p.Recv(phase, c, int(rx.from), m)
	}
	e.inbox[v] = e.inbox[v][:0]
	p.Flush(phase, c)
}

// begin starts a phase at node v: Begin stages the phase's opening
// sends and Flush drains any batched announcements Begin queued.
func (e *engine) begin(p Proto, phase, v int) {
	c := &e.ctxs[v]
	p.Begin(phase, c)
	p.Flush(phase, c)
}

// Run executes the protocol on the graph and returns the cost counters.
// Phases advance when the network quiesces (no staged send, no pending
// retransmission); the run ends when Done reports completion, and
// aborts with an error if any node's handler failed or MaxRounds
// elapsed without quiescing.
func Run(g *graph.Graph, p Proto, cfg Config) (Counters, error) {
	e := newEngine(g, cfg)
	n := g.N()
	for phase := 0; !p.Done(phase); phase++ {
		if int64(phase) > e.maxRounds {
			return e.counters, errors.New("dist: protocol never reported Done")
		}
		e.counters.Phases++
		par.For(n, func(v int) { e.begin(p, phase, v) })
		if err := e.firstErr(); err != nil {
			return e.counters, err
		}
		for e.deliver() {
			e.counters.Rounds++
			if e.counters.Rounds > e.maxRounds {
				return e.counters, fmt.Errorf("dist: phase %d exceeded %d rounds without quiescing", phase, e.maxRounds)
			}
			par.For(n, func(v int) { e.step(p, phase, v) })
			if err := e.firstErr(); err != nil {
				return e.counters, err
			}
		}
	}
	return e.counters, nil
}

// Package faultsim injects faults into routing-scheme executions: lossy
// links, per-hop latency, edge outages and node churn, driven by a
// seeded deterministic FaultPlan, with a source-side reliability layer
// (retries with exponential backoff and jitter, per-delivery deadline).
//
// It executes deliveries through the exact same sim.Router step
// functions as internal/sim — the fault layer sits between hops, never
// inside a forwarding decision, so the local-decision property the
// paper's schemes are analyzed under is preserved: a node's table and
// the packet header alone determine the next hop, and faults only decide
// whether that hop's transmission survives.
//
// Determinism: every random draw is a pure hash of
// (plan seed, delivery id, attempt, hop, draw kind). Two runs of the
// same plan over the same deliveries produce byte-identical results
// regardless of scheduling, and attempt 0 of a retried delivery sees
// exactly the draws an unretried delivery sees — which is why enabling
// retries can only grow the delivered set.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package faultsim

import (
	"math"

	"compactrouting/internal/graph"
	"compactrouting/internal/sim"
	"compactrouting/internal/trace"
)

// Window is a half-open outage interval [From, Until) in virtual time.
// Until <= From means the outage is permanent from From on.
type Window struct {
	From, Until float64
}

// covers reports whether t falls inside the window.
func (w Window) covers(t float64) bool {
	return t >= w.From && (w.Until <= w.From || t < w.Until)
}

// NodeOutage takes a node down for a window: packets arriving at (or
// originating from) the node while it is down are lost.
type NodeOutage struct {
	Node int
	Window
}

// EdgeOutage takes an undirected edge down for a window: transmissions
// over it while it is down are lost. A permanent outage from time 0
// models edge deletion.
type EdgeOutage struct {
	U, V int
	Window
}

// EdgeLoss overrides the plan-wide loss probability on one undirected
// edge.
type EdgeLoss struct {
	U, V int
	Loss float64
}

// FaultPlan describes what is injected. The zero value injects nothing:
// executions are hop-identical to internal/sim's by construction, since
// both run sim.Walk and the fault layer only observes its hops.
type FaultPlan struct {
	// Seed keys every random draw. Two plans with equal fields produce
	// identical fault sequences.
	Seed int64
	// Loss is the probability that any single edge transmission is
	// dropped (per hop, per attempt).
	Loss float64
	// EdgeLoss overrides Loss on specific edges.
	EdgeLoss []EdgeLoss
	// HopLatency is the virtual time one hop takes.
	HopLatency float64
	// LatencyJitter widens each hop to HopLatency * (1 + u*LatencyJitter)
	// with u uniform in [0,1).
	LatencyJitter float64
	// NodeOutages is the churn schedule: nodes down during windows.
	NodeOutages []NodeOutage
	// EdgeOutages is the link-failure schedule.
	EdgeOutages []EdgeOutage
}

// Reliability is the source-side retry policy. The zero value sends
// exactly once (no retries, no deadline).
type Reliability struct {
	// MaxAttempts bounds total transmissions per delivery; <= 0 means 1.
	MaxAttempts int
	// BaseBackoff is the virtual-time wait before the first retry; each
	// further retry doubles it (exponential backoff).
	BaseBackoff float64
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff float64
	// Jitter randomizes each backoff to backoff * (1 + u*Jitter),
	// u uniform in [0,1), desynchronizing retry storms.
	Jitter float64
	// Deadline abandons the delivery once the next attempt would start
	// after this virtual time (0 = no deadline).
	Deadline float64
}

// DefaultReliability is a sensible retry policy for experiments: four
// attempts, exponential backoff 1, 2, 4 capped at 8, half-width jitter.
var DefaultReliability = Reliability{
	MaxAttempts: 4,
	BaseBackoff: 1,
	MaxBackoff:  8,
	Jitter:      0.5,
}

// Result is the outcome of one delivery under faults.
type Result struct {
	// Sim is the walk of the final attempt (the successful one when
	// Delivered, otherwise the last try). Sim.Err is set only for
	// non-retryable routing errors, never for injected drops.
	Sim sim.Result
	// Delivered reports whether any attempt reached the destination.
	Delivered bool
	// Attempts is the number of transmissions performed (>= 1).
	Attempts int
	// Drops counts packets lost to injected faults across all attempts.
	Drops int
	// Time is the virtual time when the delivery completed (success,
	// final drop, or routing error).
	Time float64
}

// edgeKey normalizes an undirected edge for map lookup.
type edgeKey struct{ u, v int }

func mkEdge(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// Injector is a FaultPlan compiled for O(1) per-hop queries. It is
// immutable and safe for concurrent use.
type Injector struct {
	plan        FaultPlan
	edgeLoss    map[edgeKey]float64
	nodeWindows map[int][]Window
	edgeWindows map[edgeKey][]Window
}

// NewInjector compiles the plan.
func NewInjector(plan FaultPlan) *Injector {
	in := &Injector{plan: plan}
	if len(plan.EdgeLoss) > 0 {
		in.edgeLoss = make(map[edgeKey]float64, len(plan.EdgeLoss))
		for _, el := range plan.EdgeLoss {
			in.edgeLoss[mkEdge(el.U, el.V)] = el.Loss
		}
	}
	if len(plan.NodeOutages) > 0 {
		in.nodeWindows = make(map[int][]Window)
		for _, no := range plan.NodeOutages {
			in.nodeWindows[no.Node] = append(in.nodeWindows[no.Node], no.Window)
		}
	}
	if len(plan.EdgeOutages) > 0 {
		in.edgeWindows = make(map[edgeKey][]Window)
		for _, eo := range plan.EdgeOutages {
			k := mkEdge(eo.U, eo.V)
			in.edgeWindows[k] = append(in.edgeWindows[k], eo.Window)
		}
	}
	return in
}

// Plan returns the compiled plan.
func (in *Injector) Plan() FaultPlan { return in.plan }

// lossOn returns the loss probability of edge (u,v).
func (in *Injector) lossOn(u, v int) float64 {
	if in.edgeLoss != nil {
		if p, ok := in.edgeLoss[mkEdge(u, v)]; ok {
			return p
		}
	}
	return in.plan.Loss
}

// nodeUp reports whether v is up at time t.
func (in *Injector) nodeUp(v int, t float64) bool {
	for _, w := range in.nodeWindows[v] {
		if w.covers(t) {
			return false
		}
	}
	return true
}

// edgeUp reports whether edge (u,v) is up at time t.
func (in *Injector) edgeUp(u, v int, t float64) bool {
	if in.edgeWindows == nil {
		return true
	}
	for _, w := range in.edgeWindows[mkEdge(u, v)] {
		if w.covers(t) {
			return false
		}
	}
	return true
}

// TransmitOK decides the fate of one raw link transmission from u to v
// at virtual time t: sender and edge and receiver must be up, and the
// transmission must survive the edge's loss draw. id and attempt key
// the draw the way delivery id and attempt number key packet-level
// draws, so the outcome is a pure hash of (seed, id, attempt) — the
// contract the dist engine's link layer relies on for byte-identical
// reruns (see internal/dist).
func (in *Injector) TransmitOK(u, v int, t float64, id, attempt uint64) bool {
	if !in.nodeUp(u, t) || !in.edgeUp(u, v, t) {
		return false
	}
	if p := in.lossOn(u, v); p > 0 && in.unit(drawLoss, id, attempt, 0) < p {
		return false
	}
	return in.nodeUp(v, t)
}

// Draw kinds, mixed into the hash so the same (delivery, attempt, hop)
// coordinate yields independent streams per purpose.
const (
	drawLoss uint64 = iota + 1
	drawLatency
	drawBackoff
)

// mix64 is SplitMix64's finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit returns a deterministic uniform draw in [0,1) keyed by the seed
// and the given coordinates.
func (in *Injector) unit(kind, delivery, attempt, hop uint64) float64 {
	h := mix64(uint64(in.plan.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ kind)
	h = mix64(h ^ delivery)
	h = mix64(h ^ attempt)
	h = mix64(h ^ hop)
	return float64(h>>11) / (1 << 53)
}

// hopLatency returns the (jittered) virtual time of one hop.
func (in *Injector) hopLatency(delivery, attempt, hop uint64) float64 {
	if in.plan.HopLatency == 0 {
		return 0
	}
	d := in.plan.HopLatency
	if in.plan.LatencyJitter > 0 {
		d *= 1 + in.plan.LatencyJitter*in.unit(drawLatency, delivery, attempt, hop)
	}
	return d
}

// backoff returns the jittered wait before attempt number attempt
// (attempt >= 1: the wait after the attempt-1'th transmission failed).
func (in *Injector) backoff(rel Reliability, delivery, attempt uint64) float64 {
	b := rel.BaseBackoff * math.Pow(2, float64(attempt-1))
	if rel.MaxBackoff > 0 && b > rel.MaxBackoff {
		b = rel.MaxBackoff
	}
	if rel.Jitter > 0 {
		b *= 1 + rel.Jitter*in.unit(drawBackoff, delivery, attempt, 0)
	}
	return b
}

// faults is the fault layer as a sim.Observer: it decides whether each
// checked hop's transmission survives — edge and node up checks, the
// loss draw — and keeps the attempt's virtual clock. The recorder it
// embeds logs the surviving walk (and the trace).
type faults[H sim.Header] struct {
	sim.Recorder[H]
	in      *Injector
	id, att uint64
	t       float64
}

// Begin implements sim.Observer: a packet originating at a down node is
// lost at its source.
func (f *faults[H]) Begin(src, headerBits int) bool {
	f.Recorder.Begin(src, headerBits)
	return f.in.nodeUp(src, f.t)
}

// Hop implements sim.Observer.
func (f *faults[H]) Hop(at, next int, nh H, headerBits int, w float64) bool {
	hop := uint64(len(f.Path) - 1)
	// The transmission leaves at time t over edge (at, next)...
	if !f.in.edgeUp(at, next, f.t) {
		return false
	}
	if p := f.in.lossOn(at, next); p > 0 && f.in.unit(drawLoss, f.id, f.att, hop) < p {
		return false
	}
	// ...and arrives after the hop's latency, when the receiving node
	// must be up.
	f.t += f.in.hopLatency(f.id, f.att, hop)
	if !f.in.nodeUp(next, f.t) {
		return false
	}
	return f.Recorder.Hop(at, next, nh, headerBits, w)
}

// attempt walks one transmission through sim.Walk with the fault layer
// observing every hop. It returns the partial or complete walk, whether
// the packet was dropped by an injected fault, and the virtual end
// time. res.Err is set only for non-retryable routing errors. Each
// attempt restarts the trace: the surviving hop log describes the final
// attempt's walk, matching Result.Sim.
func attempt[H sim.Header](g *graph.Graph, r sim.Router[H], src, dst, maxHops int,
	in *Injector, id, att uint64, start float64, tr *trace.Trace) (res sim.Result, dropped bool, end float64) {
	f := &faults[H]{Recorder: sim.Recorder[H]{Trace: tr}, in: in, id: id, att: att, t: start}
	lr := sim.Walk[H](g, r, src, dst, maxHops, f)
	return f.Result(src, lr), lr.Dropped, f.t
}

// Deliver executes one delivery under the injector's faults with the
// given retry policy. id must be unique per delivery (the delivery's
// index, or any stable key): it selects the delivery's random stream.
//
// Virtual time is per delivery and starts at 0 at the first
// transmission; the plan's outage windows are interpreted on that
// clock.
func Deliver[H sim.Header](g *graph.Graph, r sim.Router[H], src, dst, maxHops int,
	in *Injector, rel Reliability, id uint64) Result {
	return DeliverTraced(g, r, src, dst, maxHops, in, rel, id, nil)
}

// DeliverTraced is Deliver with an optional trace. Each attempt resets
// the trace, so the surviving hop log matches Result.Sim (the final
// attempt's walk); the trace's Attempts and Drops fields report the
// whole delivery. A nil tr takes the exact Deliver path.
func DeliverTraced[H sim.Header](g *graph.Graph, r sim.Router[H], src, dst, maxHops int,
	in *Injector, rel Reliability, id uint64, tr *trace.Trace) Result {
	if maxHops <= 0 {
		maxHops = 8 * g.N()
	}
	maxAttempts := rel.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	var out Result
	t := 0.0
	for att := 0; ; att++ {
		res, dropped, end := attempt(g, r, src, dst, maxHops, in, id, uint64(att), t, tr)
		out.Attempts++
		out.Sim = res
		out.Time = end
		if res.Err != nil {
			break // routing error: retrying cannot change a pure step function
		}
		if !dropped {
			out.Delivered = true
			break
		}
		out.Drops++
		if out.Attempts >= maxAttempts {
			break
		}
		t = end + in.backoff(rel, id, uint64(att+1))
		if rel.Deadline > 0 && t > rel.Deadline {
			break
		}
	}
	if tr != nil {
		tr.Attempts = int32(out.Attempts)
		tr.Drops = int32(out.Drops)
	}
	return out
}

// Run executes the deliveries under the plan, one result per delivery
// (index-aligned, delivery i using random stream i). With a zero plan
// and zero Reliability every result's Sim field is identical to what
// sim.Run / sim.RouteOnce produce for the same delivery.
func Run[H sim.Header](g *graph.Graph, r sim.Router[H], deliveries []sim.Delivery,
	maxHops int, plan FaultPlan, rel Reliability) []Result {
	in := NewInjector(plan)
	out := make([]Result, len(deliveries))
	for i, d := range deliveries {
		out[i] = Deliver(g, r, d.Src, d.Dst, maxHops, in, rel, uint64(i))
	}
	return out
}

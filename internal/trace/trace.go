// Package trace is the execution-trace layer of the repository: a
// structured, deterministic record of every forwarding decision a
// routed packet makes. Each trace is a sequence of hop records — node
// ids, the scheme phase that produced the hop (ring/ball hit, tree
// walk, search-tree round trip, zoom climb, final labeled leg,
// fallback), the header size carried over the hop, and the hop's edge
// weight — plus a per-route summary that decomposes stretch into those
// phases.
//
// The layer is zero-overhead when disabled: internal/walk and
// internal/faultsim thread an optional *Trace through the hop loop
// and skip every trace instruction when it is nil (pinned by an
// allocation test in internal/sim). When enabled, a trace is a pure
// function of (scheme tables, src, dst): byte-for-byte identical
// across runs and GOMAXPROCS settings, which the property suite in
// this package asserts for every scheme.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package trace

import "math"

// Phase classifies one hop's role in a scheme's decision structure.
// The zero value PhaseDirect is the default for headers that do not
// classify themselves.
type Phase uint8

const (
	// PhaseDirect: a direct analyzed hop — a ring/ball hit of the
	// labeled schemes, or a shortest-path hop of the baselines.
	PhaseDirect Phase = iota
	// PhaseTree: tree-routing toward a cell center or delegated ball
	// (the "cluster climb" legs).
	PhaseTree
	// PhaseSearch: a search-tree round trip (name or label resolution).
	PhaseSearch
	// PhaseZoom: climbing the zooming sequence to the next net ancestor.
	PhaseZoom
	// PhaseFinal: the final labeled leg to the destination.
	PhaseFinal
	// PhaseFallback: hops taken on a scheme's safety net rather than
	// its analyzed path.
	PhaseFallback

	// NumPhases is the number of distinct phases.
	NumPhases = int(PhaseFallback) + 1
)

// phaseNames indexes Phase values; keep in sync with the constants.
var phaseNames = [NumPhases]string{
	"direct", "tree", "search", "zoom", "final", "fallback",
}

// String returns the phase's wire name ("direct", "tree", ...).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// Phased is implemented by packet headers that classify the hops they
// ride; internal/walk consults it per traced hop. Headers without it
// trace as PhaseDirect.
type Phased interface {
	TracePhase() Phase
}

// Hop is one traced forwarding decision: the packet moved From -> To
// (a graph edge of weight Dist) carrying HeaderBits bits, in the given
// scheme phase.
type Hop struct {
	From, To   int32
	Phase      Phase
	HeaderBits int32
	Dist       float64
}

// Trace is the deterministic record of one routed delivery. A Trace is
// reusable: Begin resets it in place, so serving layers can keep one
// per worker and avoid per-request allocation after warm-up.
type Trace struct {
	Src, Dst int32 // Dst is -1 until arrival
	// PrepBits is the header size as prepared at the source (the
	// largest header en route is max(PrepBits, per-hop HeaderBits)).
	PrepBits int32
	Hops     []Hop
	// Attempts and Drops report the reliability layer's work when the
	// delivery ran under fault injection (zero otherwise); Hops then
	// records the final attempt's walk.
	Attempts int32
	Drops    int32
}

// Begin resets the trace in place for a new delivery from src whose
// prepared header is prepBits bits.
func (t *Trace) Begin(src, prepBits int32) {
	t.Src, t.Dst, t.PrepBits = src, -1, prepBits
	t.Hops = t.Hops[:0]
	t.Attempts, t.Drops = 0, 0
}

// Cost returns the summed hop distances. The hops are accumulated in
// walk order, so the sum is bit-identical to the step loop's own
// running cost.
func (t *Trace) Cost() float64 {
	c := 0.0
	for i := range t.Hops {
		c += t.Hops[i].Dist
	}
	return c
}

// MaxHeaderBits returns the largest header observed en route.
func (t *Trace) MaxHeaderBits() int {
	max := int(t.PrepBits)
	for i := range t.Hops {
		if b := int(t.Hops[i].HeaderBits); b > max {
			max = b
		}
	}
	return max
}

// PhaseStat is the per-phase slice of a route: how many hops and how
// much cost the phase consumed. Phases appear in enum order.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Hops  int     `json:"hops"`
	Cost  float64 `json:"cost"`
}

// Summary is the per-route rollup: total cost and stretch, the largest
// header, and the detour decomposition by phase.
type Summary struct {
	Hops          int         `json:"hops"`
	Cost          float64     `json:"cost"`
	Optimal       float64     `json:"optimal"`
	Stretch       float64     `json:"stretch"`
	MaxHeaderBits int         `json:"max_header_bits"`
	Phases        []PhaseStat `json:"phases"`
	Attempts      int         `json:"attempts,omitempty"`
	Drops         int         `json:"drops,omitempty"`
}

// Summarize rolls the trace up against the optimal distance (stretch
// is 1 for zero-distance self-routes).
func (t *Trace) Summarize(optimal float64) Summary {
	var hops [NumPhases]int
	var cost [NumPhases]float64
	total := 0.0
	for i := range t.Hops {
		p := t.Hops[i].Phase
		if int(p) >= NumPhases {
			p = PhaseDirect
		}
		hops[p]++
		cost[p] += t.Hops[i].Dist
		total += t.Hops[i].Dist
	}
	s := Summary{
		Hops:          len(t.Hops),
		Cost:          total,
		Optimal:       optimal,
		Stretch:       1,
		MaxHeaderBits: t.MaxHeaderBits(),
		Attempts:      int(t.Attempts),
		Drops:         int(t.Drops),
	}
	if optimal > 0 {
		s.Stretch = total / optimal
	}
	for p := 0; p < NumPhases; p++ {
		if hops[p] > 0 {
			s.Phases = append(s.Phases, PhaseStat{Phase: Phase(p).String(), Hops: hops[p], Cost: cost[p]})
		}
	}
	return s
}

// WireHop is the JSON form of one hop.
type WireHop struct {
	From       int     `json:"from"`
	To         int     `json:"to"`
	Phase      string  `json:"phase"`
	HeaderBits int     `json:"header_bits"`
	Dist       float64 `json:"dist"`
}

// Wire is the JSON form of a trace, capped for transport: at most
// maxHops hop records are echoed, with Truncated set and TotalHops
// preserving the real length when the cap bites. The summary fields
// always cover the full walk.
type Wire struct {
	Src       int       `json:"src"`
	Dst       int       `json:"dst"`
	TotalHops int       `json:"total_hops"`
	Truncated bool      `json:"truncated,omitempty"`
	Hops      []WireHop `json:"hops"`
	Summary   Summary   `json:"summary"`
}

// ToWire converts the trace for a JSON response, truncating the hop
// log at maxHops records (<= 0 means no cap).
func (t *Trace) ToWire(optimal float64, maxHops int) *Wire {
	w := &Wire{
		Src:       int(t.Src),
		Dst:       int(t.Dst),
		TotalHops: len(t.Hops),
		Summary:   t.Summarize(optimal),
	}
	hops := t.Hops
	if maxHops > 0 && len(hops) > maxHops {
		hops = hops[:maxHops]
		w.Truncated = true
	}
	w.Hops = make([]WireHop, len(hops))
	for i := range hops {
		w.Hops[i] = WireHop{
			From:       int(hops[i].From),
			To:         int(hops[i].To),
			Phase:      hops[i].Phase.String(),
			HeaderBits: int(hops[i].HeaderBits),
			Dist:       hops[i].Dist,
		}
	}
	return w
}

// StretchBucketEdges are the shared stretch-histogram bucket upper
// bounds (inclusive), used by the serving layer's /metrics and by
// routebench -json so the two distributions are comparable. The last
// bucket is unbounded. 9.5 sits just above the 9+ε name-independent
// guarantee, so bound violations land in the overflow bucket.
var StretchBucketEdges = []float64{
	1.0, 1.05, 1.1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 7, 9.5,
}

// StretchBucket returns the bucket index for a stretch value
// (len(StretchBucketEdges) for the overflow bucket).
func StretchBucket(s float64) int {
	for i, ub := range StretchBucketEdges {
		if s <= ub {
			return i
		}
	}
	return len(StretchBucketEdges)
}

// StretchHistogram counts stretches into the shared buckets; the
// returned slice has len(StretchBucketEdges)+1 entries, the last being
// the unbounded overflow bucket.
func StretchHistogram(stretches []float64) []int {
	counts := make([]int, len(StretchBucketEdges)+1)
	for _, s := range stretches {
		if math.IsNaN(s) {
			continue
		}
		counts[StretchBucket(s)]++
	}
	return counts
}

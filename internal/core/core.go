// Package core defines the types shared by every routing scheme in this
// repository: route traces with cost and header accounting, the labeled
// and name-independent scheme interfaces, and stretch/storage evaluation
// helpers used by the experiment harness.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"compactrouting/internal/graph"
	"compactrouting/internal/trace"
)

// Route is the trace of one packet delivery.
type Route struct {
	Src, Dst int
	// Path is the physical node walk, Path[0] == Src and the last
	// element == Dst. Consecutive entries are graph edges.
	Path []int
	// Cost is the summed edge weight of Path.
	Cost float64
	// MaxHeaderBits is the largest packet header observed en route.
	MaxHeaderBits int
	// Fallback marks deliveries that used a scheme's safety net rather
	// than its analyzed path (should be zero on doubling workloads).
	Fallback bool
}

// Stretch returns Cost divided by the optimal distance (1 for
// self-routes of zero distance).
func (r *Route) Stretch(optimal float64) float64 {
	if optimal == 0 {
		return 1
	}
	return r.Cost / optimal
}

// Trace incrementally builds a Route's walk, validating that each hop
// is a graph edge and accumulating cost.
type Trace struct {
	g    *graph.Graph
	path []int
	cost float64
	hdr  int
	fall bool
}

// NewTrace starts a trace at src.
func NewTrace(g *graph.Graph, src int) *Trace {
	return &Trace{g: g, path: []int{src}}
}

// At returns the current node.
func (t *Trace) At() int { return t.path[len(t.path)-1] }

// Hop moves to a neighbor of the current node.
func (t *Trace) Hop(to int) error {
	w, ok := t.g.EdgeWeight(t.At(), to)
	if !ok {
		return fmt.Errorf("core: hop %d -> %d is not an edge", t.At(), to)
	}
	t.path = append(t.path, to)
	t.cost += w
	return nil
}

// Walk appends a node path (whose first element must be the current
// node).
func (t *Trace) Walk(path []int) error {
	if len(path) == 0 {
		return errors.New("core: empty walk")
	}
	if path[0] != t.At() {
		return fmt.Errorf("core: walk starts at %d, trace is at %d", path[0], t.At())
	}
	for _, v := range path[1:] {
		if err := t.Hop(v); err != nil {
			return err
		}
	}
	return nil
}

// Header records that the packet carried a header of the given size (in
// bits) during the last step; the maximum is kept.
func (t *Trace) Header(bits int) {
	if bits > t.hdr {
		t.hdr = bits
	}
}

// MarkFallback flags the route as having used a safety net.
func (t *Trace) MarkFallback() { t.fall = true }

// Cost returns the accumulated cost so far.
func (t *Trace) Cost() float64 { return t.cost }

// Steps returns the number of hops taken so far.
func (t *Trace) Steps() int { return len(t.path) - 1 }

// Finish validates the destination and returns the Route.
func (t *Trace) Finish(dst int) (*Route, error) {
	if t.At() != dst {
		return nil, fmt.Errorf("core: route ended at %d, want %d", t.At(), dst)
	}
	return &Route{
		Src:           t.path[0],
		Dst:           dst,
		Path:          t.path,
		Cost:          t.cost,
		MaxHeaderBits: t.hdr,
		Fallback:      t.fall,
	}, nil
}

// LabeledScheme is a compact routing scheme in the labeled model: the
// designer assigns each node a small label and sources must know the
// destination's label.
type LabeledScheme interface {
	// SchemeName identifies the scheme in reports.
	SchemeName() string
	// LabelOf returns v's routing label (an integer in [0, n) for the
	// paper's ceil(log n)-bit labels).
	LabelOf(v int) int
	// RouteToLabel delivers a packet from src to the node labeled
	// label, simulating local decisions hop by hop.
	RouteToLabel(src, label int) (*Route, error)
	// TableBits returns the routing table size of v in bits.
	TableBits(v int) int
}

// NameIndependentScheme is a compact routing scheme that works on top
// of arbitrary original node names.
type NameIndependentScheme interface {
	SchemeName() string
	// NameOf returns v's (adversarial) original name.
	NameOf(v int) int
	// RouteToName delivers a packet from src to the node named name.
	RouteToName(src, name int) (*Route, error)
	TableBits(v int) int
}

// StretchStats summarizes stretch over a set of routed pairs.
type StretchStats struct {
	Count     int
	Max       float64
	Mean      float64
	P50       float64
	P95       float64
	P99       float64
	MaxHeader int
	Fallbacks int
	// Hist counts stretches into the shared trace.StretchBucketEdges
	// buckets (one extra overflow bucket at the end), so experiment
	// reports and the serving layer's /metrics bucket identically.
	Hist []int
}

// SummarizeStretches computes the full stretch summary — order
// statistics plus the shared-bucket histogram — over the given
// stretches. The slice is sorted in place.
func SummarizeStretches(stretches []float64, maxHeader, fallbacks int) StretchStats {
	return summarize(stretches, maxHeader, fallbacks)
}

func summarize(stretches []float64, maxHeader, fallbacks int) StretchStats {
	if len(stretches) == 0 {
		return StretchStats{}
	}
	hist := trace.StretchHistogram(stretches)
	sort.Float64s(stretches)
	sum := 0.0
	for _, s := range stretches {
		sum += s
	}
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(stretches)))) - 1
		if i < 0 {
			i = 0
		}
		return stretches[i]
	}
	return StretchStats{
		Count:     len(stretches),
		Max:       stretches[len(stretches)-1],
		Mean:      sum / float64(len(stretches)),
		P50:       q(0.50),
		P95:       q(0.95),
		P99:       q(0.99),
		MaxHeader: maxHeader,
		Fallbacks: fallbacks,
		Hist:      hist,
	}
}

// DistOracle is the slice of the APSP oracle evaluation needs.
type DistOracle interface {
	Dist(u, v int) float64
}

// Evaluate routes every pair in pairs with route, which takes a
// destination node id, and summarizes stretch.
func Evaluate(route func(src, dst int) (*Route, error), d DistOracle, pairs [][2]int) (StretchStats, error) {
	stretches := make([]float64, 0, len(pairs))
	maxHdr, falls := 0, 0
	for _, p := range pairs {
		r, err := route(p[0], p[1])
		if err != nil {
			return StretchStats{}, fmt.Errorf("route %d -> %d: %w", p[0], p[1], err)
		}
		stretches = append(stretches, r.Stretch(d.Dist(p[0], p[1])))
		if r.MaxHeaderBits > maxHdr {
			maxHdr = r.MaxHeaderBits
		}
		if r.Fallback {
			falls++
		}
	}
	return summarize(stretches, maxHdr, falls), nil
}

// EvaluateLabeled routes every pair in pairs by destination label and
// summarizes stretch.
func EvaluateLabeled(s LabeledScheme, d DistOracle, pairs [][2]int) (StretchStats, error) {
	return Evaluate(func(src, dst int) (*Route, error) { return s.RouteToLabel(src, s.LabelOf(dst)) }, d, pairs)
}

// EvaluateNameIndependent routes every pair in pairs by destination
// name and summarizes stretch.
func EvaluateNameIndependent(s NameIndependentScheme, d DistOracle, pairs [][2]int) (StretchStats, error) {
	return Evaluate(func(src, dst int) (*Route, error) { return s.RouteToName(src, s.NameOf(dst)) }, d, pairs)
}

// TableStats summarizes per-node routing-table sizes in bits.
type TableStats struct {
	MaxBits   int
	MeanBits  float64
	TotalBits int
}

// Tables reports table-size statistics for any scheme exposing
// TableBits over n nodes.
func Tables(tableBits func(v int) int, n int) TableStats {
	var st TableStats
	for v := 0; v < n; v++ {
		b := tableBits(v)
		st.TotalBits += b
		if b > st.MaxBits {
			st.MaxBits = b
		}
	}
	st.MeanBits = float64(st.TotalBits) / float64(n)
	return st
}

// AllPairs enumerates every ordered pair of distinct nodes.
func AllPairs(n int) [][2]int {
	out := make([][2]int, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// SamplePairs returns count pseudo-random ordered pairs of distinct
// nodes, deterministically from seed (linear congruential; good enough
// for workload sampling and dependency-free).
func SamplePairs(n, count int, seed int64) [][2]int {
	if n < 2 {
		return nil
	}
	out := make([][2]int, 0, count)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() uint64 {
		state = state*2862933555777941757 + 3037000493
		return state >> 16
	}
	for len(out) < count {
		u := int(next() % uint64(n))
		v := int(next() % uint64(n))
		if u != v {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

package sim

import (
	"compactrouting/internal/baseline"
	"compactrouting/internal/labeled"
	"compactrouting/internal/nameind"
	"compactrouting/internal/trace"
)

// All six adapter headers classify their hops for the trace layer;
// these assertions keep a new header from silently tracing as
// PhaseDirect.
var (
	_ trace.Phased = labeled.SimpleHeader{}
	_ trace.Phased = labeled.SFHeader{}
	_ trace.Phased = nameind.NIHeader{}
	_ trace.Phased = nameind.SFNIHeader{}
	_ trace.Phased = baseline.Destination(0)
	_ trace.Phased = baseline.TreeHeader{}
)

// Adapter wraps a scheme as a Router value. Every scheme is a Router
// itself, so callers bind schemes directly (internal/schemes does); the
// adapter only keeps the two named router types below, which the
// benchmark harness's reference walks (_bench/reference.go) build as
// struct literals ({S: scheme}).
type Adapter[S Router[H], H Header] struct {
	S S
}

// PrepareHeader implements Router.
func (a Adapter[S, H]) PrepareHeader(dst int) (H, error) { return a.S.PrepareHeader(dst) }

// Step implements Router.
func (a Adapter[S, H]) Step(node int, h H) (int, H, bool, error) { return a.S.Step(node, h) }

// The routers _bench/reference.go builds: the labeled scheme is
// addressed by label, the name-independent one by ORIGINAL NAME.
type (
	SimpleLabeledRouter   = Adapter[*labeled.Simple, labeled.SimpleHeader]
	NameIndependentRouter = Adapter[*nameind.Simple, nameind.NIHeader]
)

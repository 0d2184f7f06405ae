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
// itself, so the serving path binds schemes directly; the adapter only
// keeps the six named router types below, which callers build as
// struct literals ({S: scheme}).
type Adapter[S Router[H], H Header] struct {
	S S
}

// PrepareHeader implements Router.
func (a Adapter[S, H]) PrepareHeader(dst int) (H, error) { return a.S.PrepareHeader(dst) }

// Step implements Router.
func (a Adapter[S, H]) Step(node int, h H) (int, H, bool, error) { return a.S.Step(node, h) }

// The six schemes' routers. Labeled schemes are addressed by label,
// name-independent ones by ORIGINAL NAME, baselines by node id (the
// single tree carries its tree label in the header).
type (
	SimpleLabeledRouter            = Adapter[*labeled.Simple, labeled.SimpleHeader]
	ScaleFreeLabeledRouter         = Adapter[*labeled.ScaleFree, labeled.SFHeader]
	NameIndependentRouter          = Adapter[*nameind.Simple, nameind.NIHeader]
	ScaleFreeNameIndependentRouter = Adapter[*nameind.ScaleFree, nameind.SFNIHeader]
	FullTableRouter                = Adapter[*baseline.FullTable, baseline.Destination]
	SingleTreeRouter               = Adapter[*baseline.SingleTree, baseline.TreeHeader]
)

// Package sim is what remains of the message-passing simulator after
// its hop loop moved to internal/walk: the six names the benchmark
// harness (_bench) still imports, as aliases of and forwarders to walk.
// It goes when _bench next changes. Its tests drive walk over every
// scheme; they import the schemes, which import walk.
//
//determinlint:deterministic
package sim

import (
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/nameind"
	"compactrouting/internal/walk"
)

// The walk types _bench names; its routers are the labeled scheme
// addressed by label and the name-independent one by original name.
type (
	Result                = walk.Result
	LiteResult            = walk.LiteResult
	SimpleLabeledRouter   = walk.Adapter[*labeled.Simple, labeled.SimpleHeader]
	NameIndependentRouter = walk.Adapter[*nameind.Simple, nameind.NIHeader]
)

// RouteOnce is walk.RouteOnce.
func RouteOnce[H walk.Header](g *graph.Graph, r walk.Router[H], src, dst, maxHops int) Result {
	return walk.RouteOnce(g, r, src, dst, maxHops)
}

// RouteLite is walk.RouteLite.
func RouteLite[H walk.Header](g *graph.Graph, r walk.Router[H], src, dst, maxHops int) LiteResult {
	return walk.RouteLite(g, r, src, dst, maxHops)
}

package nameind

import (
	"fmt"

	"compactrouting/internal/walk"
)

// LevelTrace records what happened at one level of Algorithm 3.
type LevelTrace struct {
	// Level is the hierarchy level i.
	Level int
	// SearchCost is the physical cost of the Search()/SearchTree()
	// round trip at this level.
	SearchCost float64
	// Found reports whether the destination's label surfaced here.
	Found bool
	// ZoomCost is the cost of moving u(i) -> u(i+1) after a failed
	// search (0 at the final level or when u(i) = u(i+1)).
	ZoomCost float64
}

// Explanation decomposes one name-independent delivery into the pieces
// Lemma 3.4's stretch argument charges: per-level searches, zooming
// moves, and the final labeled route (Figure 1's anatomy).
type Explanation struct {
	Src, Dst int
	Levels   []LevelTrace
	// FinalCost is the labeled route after the label was found.
	FinalCost float64
	// TotalCost is the full delivery cost.
	TotalCost float64
	// Optimal is d(src, dst).
	Optimal float64
}

// Stretch returns the explained route's stretch.
func (e *Explanation) Stretch() float64 {
	if e.Optimal == 0 {
		return 1
	}
	return e.TotalCost / e.Optimal
}

// leg is the piece of Lemma 3.4's accounting a hop is charged to.
type leg uint8

const (
	legSearch leg = iota // a level's search round trip (Algorithm 4's delegation included)
	legZoom              // the move u(i) -> u(i+1)
	legFinal             // the labeled route to the found destination
	numLegs
)

// span is the running cost before a leg's first hop and after its last.
// A leg's cost is their difference, so it is bit-identical to the cost
// a sequential walk would compute as after-minus-before.
type span struct {
	from, to float64
	hopped   bool
}

// anatomized is a header the anatomy observer can book.
type anatomized interface {
	walk.Header
	// leg names the leg and level a hop carrying the header is charged
	// to. A zoom hop's header already names the next level.
	leg() (leg, int)
	// end reads an arrival header: the level the walk ended at and
	// whether a search found the label there (otherwise the level's
	// anchor was the destination itself, and no search ran at that
	// level).
	end() (level int, found bool)
}

func (h NIHeader) leg() (leg, int) {
	switch h.Phase {
	case NIPhaseZoom:
		return legZoom, int(h.Level) - 1
	case NIPhaseFinal:
		return legFinal, 0
	default:
		return legSearch, int(h.Level)
	}
}

func (h NIHeader) end() (int, bool) { return int(h.Level), h.Phase == NIPhaseFinal }

// leg books Algorithm 4's delegated searches — the walks to the packing
// ball's center and back — to the level's search.
func (h SFNIHeader) leg() (leg, int) {
	switch h.Phase {
	case SFNIZoom:
		return legZoom, int(h.Level) - 1
	case SFNIFinal:
		return legFinal, 0
	default:
		return legSearch, int(h.Level)
	}
}

func (h SFNIHeader) end() (int, bool) { return int(h.Level), h.Phase == SFNIFinal }

// anatomy is the walk.Observer behind both Explains: it books every hop
// to the leg and level its header names, keeping the walk's running
// cost at each leg's ends.
type anatomy[H anatomized] struct {
	cost   float64
	spans  [numLegs][]span
	arrive H
}

// Begin implements walk.Observer.
func (a *anatomy[H]) Begin(int, int) bool { return true }

// Hop implements walk.Observer.
func (a *anatomy[H]) Hop(_, _ int, nh H, _ int, w float64) bool {
	l, i := nh.leg()
	sp := &a.spans[l][i]
	if !sp.hopped {
		sp.from, sp.hopped = a.cost, true
	}
	a.cost += w
	sp.to = a.cost
	return true
}

// Arrive implements walk.Observer.
func (a *anatomy[H]) Arrive(_ int, h H) { a.arrive = h }

// legCost returns the cost booked to leg l at level i (0 for a leg that
// took no hop).
func (a *anatomy[H]) legCost(l leg, i int) float64 {
	return a.spans[l][i].to - a.spans[l][i].from
}

// explain walks src -> name through r's Step with an anatomy observer
// and assembles the Explanation.
func explain[H anatomized](b *base, r walk.Router[H], src, name, maxHops int) (*Explanation, error) {
	if src < 0 || src >= b.g.N() {
		return nil, fmt.Errorf("nameind: source %d out of range", src)
	}
	a := &anatomy[H]{}
	for l := range a.spans {
		a.spans[l] = make([]span, b.h.TopLevel()+1)
	}
	lr := walk.Walk[H](b.g, r, src, name, maxHops, a)
	if lr.Err != nil {
		return nil, lr.Err
	}
	level, found := a.arrive.end()
	rec := &Explanation{Src: src, Dst: lr.Dst, TotalCost: lr.Cost, Optimal: b.a.Dist(src, lr.Dst)}
	searched := level
	if found {
		searched++
		rec.FinalCost = a.legCost(legFinal, 0)
	}
	for i := 0; i < searched; i++ {
		rec.Levels = append(rec.Levels, LevelTrace{
			Level:      i,
			SearchCost: a.legCost(legSearch, i),
			Found:      found && i == level,
			ZoomCost:   a.legCost(legZoom, i),
		})
	}
	return rec, nil
}

// Explain routes like RouteToName while recording the per-level cost
// anatomy of Lemma 3.4 (the Figure 1 decomposition) as an observer of
// the one Step walk.
func (s *Simple) Explain(src, name int) (*Explanation, error) {
	return explain[NIHeader](s.base, s, src, name, SimpleHopsPerNode*s.g.N())
}

// Explain routes like RouteToName while recording the per-level cost
// anatomy (Figure 1's decomposition, with Algorithm 4's delegated
// searches folded into the level search costs).
func (s *ScaleFree) Explain(src, name int) (*Explanation, error) {
	return explain[SFNIHeader](s.base, s, src, name, ScaleFreeHopsPerNode*s.g.N())
}

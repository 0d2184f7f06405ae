package labeled

import (
	"fmt"

	"compactrouting/internal/walk"
)

// Phase5Trace decomposes one Algorithm 5 delivery into the legs of
// Figure 2 and Lemma 4.7's accounting, including the Claim 4.6 window
// around the phase-B handoff.
type Phase5Trace struct {
	Src, Dst int
	// PhaseAHops and PhaseACost cover the walk u_0 -> u_t.
	PhaseAHops int
	PhaseACost float64
	// Direct reports a delivery that ended with a level-0 ring hit
	// (x = destination), skipping phase B entirely.
	Direct bool
	// Stopping state at u_t (only when !Direct):
	IT          int     // i_t, the minimal hit level at u_t
	J           int     // packing level j of line 7
	UT          int     // u_t
	Center      int     // Voronoi center c
	CenterCost  float64 // routing cost u_t -> c
	CenterDist  float64 // d(u_t, c)
	BallRadius  float64 // r_c(j)
	SearchCost  float64 // SearchTree II round trip
	FinalCost   float64 // c -> v on T_c(j)
	RUj, RUj1   float64 // r_{u_t}(j), r_{u_t}(j+1)
	DistUTtoDst float64 // d(u_t, v)
	// Claim46Holds verifies r_{u_t}(j)/(3 eps) < d(u_t,v) < r_{u_t}(j+1)/5.
	Claim46Holds bool
	TotalCost    float64
	Optimal      float64
}

// Stretch returns the explained route's stretch.
func (p *Phase5Trace) Stretch() float64 {
	if p.Optimal == 0 {
		return 1
	}
	return p.TotalCost / p.Optimal
}

// Explain routes from src to the node labeled label like RouteToLabel,
// recording the Figure 2 anatomy. It is an observer of the one Step
// walk: each hop is booked to the leg its header's phase names, a leg's
// cost is a difference of the walk's running cost, and the stopping
// state at u_t is read from u_t's own table and the header's J. It
// fails on routes that took the safety-net fallback (none arise within
// the scheme's parameter range).
func (s *ScaleFree) Explain(src, label int) (*Phase5Trace, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("labeled: source %d out of range", src)
	}
	if label < 0 || label >= s.g.N() {
		return nil, fmt.Errorf("labeled: label %d out of range", label)
	}
	obs := &phase5Observer{ut: -1}
	lr := walk.Walk[SFHeader](s.g, s, src, label, s.maxHops(), obs)
	if lr.Err != nil {
		return nil, lr.Err
	}
	if obs.fell {
		return nil, fmt.Errorf("labeled: explain: route %d -> label %d took the fallback (outside analyzed range)", src, label)
	}
	dst := lr.Dst
	rec := &Phase5Trace{Src: src, Dst: dst, PhaseAHops: obs.phaseAHops, TotalCost: lr.Cost, Optimal: s.a.Dist(src, dst)}
	if obs.ut < 0 {
		// Phase A delivered: the walk arrived at a node holding the label.
		rec.Direct = true
		rec.PhaseACost = lr.Cost
		return rec, nil
	}
	u, j := obs.ut, int(obs.j)
	// u_t's ring holds the label: a miss would have taken the fallback.
	lv, _, _ := s.minimalHitR(u, label)
	rec.PhaseACost = obs.phaseBFrom
	rec.IT, rec.J, rec.UT = lv.i, j, u
	ball := s.ownerBall[j][u]
	rec.Center = s.cells[j][ball].center
	rec.CenterDist = s.a.Dist(u, rec.Center)
	rec.BallRadius = s.pk.Balls[j][ball].Radius
	rec.RUj = s.a.RadiusOfSize(u, s.pk.Size(j))
	rec.RUj1 = s.a.RadiusOfSize(u, s.pk.Size(j+1))
	rec.DistUTtoDst = s.a.Dist(u, dst)
	rec.Claim46Holds = rec.RUj/(3*s.eps) < rec.DistUTtoDst &&
		(j == s.pk.MaxJ() || rec.DistUTtoDst < rec.RUj1/5)
	rec.CenterCost = obs.legs[phase5ToCenter].cost()
	rec.SearchCost = obs.legs[phase5Search].cost()
	rec.FinalCost = obs.legs[phase5Final].cost()
	return rec, nil
}

// The phase-B legs of Figure 2.
const (
	phase5ToCenter = iota
	phase5Search
	phase5Final
	numPhase5Legs
)

// phase5Leg is the walk's running cost before a leg's first hop and
// after its last; a leg without hops costs 0.
type phase5Leg struct {
	from, to float64
	hopped   bool
}

func (l phase5Leg) cost() float64 { return l.to - l.from }

// phase5Observer is Explain's walk.Observer.
type phase5Observer struct {
	cost       float64
	phaseAHops int
	// ut is the node phase B starts at (-1 while in phase A), j the
	// packing level it entered, phaseBFrom the running cost there.
	ut         int
	j          int32
	phaseBFrom float64
	legs       [numPhase5Legs]phase5Leg
	fell       bool
}

// Begin implements walk.Observer.
func (o *phase5Observer) Begin(int, int) bool { return true }

// Hop implements walk.Observer.
func (o *phase5Observer) Hop(at, _ int, nh SFHeader, _ int, w float64) bool {
	o.fell = o.fell || nh.Fallback
	if nh.Phase == SFPhaseA {
		o.phaseAHops++
		o.cost += w
		return true
	}
	if o.ut < 0 {
		o.ut, o.j, o.phaseBFrom = at, nh.J, o.cost
	}
	l := &o.legs[phase5Final]
	switch nh.Phase {
	case SFPhaseToCenter:
		l = &o.legs[phase5ToCenter]
	case SFPhaseSearchDown, SFPhaseSearchUp:
		l = &o.legs[phase5Search]
	}
	if !l.hopped {
		l.from, l.hopped = o.cost, true
	}
	o.cost += w
	l.to = o.cost
	return true
}

// Arrive implements walk.Observer.
func (o *phase5Observer) Arrive(_ int, h SFHeader) { o.fell = o.fell || h.Fallback }

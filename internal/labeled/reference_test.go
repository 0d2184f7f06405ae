package labeled

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/racetest"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/treeroute"
)

// frozenExplain is ScaleFree.Explain as it was before it became an
// observer of the Step walk: its own sequential Algorithm 5 loop over a
// core.Trace. It is kept as the reference the observer is compared
// against (TestExplainMatchesFrozenLoop). Two pieces it called are gone
// from the scheme and copied here: the tree route to the center and
// from it (frozenTreeRoute), and the virtual-edge crossing, which the
// loop did with one PathRealizer.Walk call and this copy does by
// stepping NextHopToward, the crossing Step makes.
func (s *ScaleFree) frozenExplain(src, label int) (*Phase5Trace, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("labeled: source %d out of range", src)
	}
	if label < 0 || label >= s.g.N() {
		return nil, fmt.Errorf("labeled: label %d out of range", label)
	}
	dst := s.nt.NodeOfLabel(label)
	rec := &Phase5Trace{Src: src, Dst: dst}
	tr := core.NewTrace(s.g, src)
	prev := s.h.TopLevel() + 1
	maxSteps := 4 * s.g.N() * (s.h.TopLevel() + 2)
	for step := 0; ; step++ {
		if step > maxSteps {
			return nil, fmt.Errorf("labeled: no progress routing to label %d", label)
		}
		u := tr.At()
		if s.nt.Label(u) == label {
			rec.Direct = true
			break
		}
		lv, e, found := s.minimalHitR(u, label)
		direct := found && lv.i == 0
		if found && lv.i <= prev && (e.far || direct) && int(e.x) != u {
			prev = lv.i
			if err := tr.Hop(int(e.next)); err != nil {
				return nil, err
			}
			rec.PhaseAHops++
			continue
		}
		if !found {
			return nil, fmt.Errorf("labeled: explain: no ring hit at %d (outside analyzed range)", u)
		}
		rec.PhaseACost = tr.Cost()
		rec.IT, rec.J, rec.UT = lv.i, lv.j, u
		cl := s.cells[lv.j][s.ownerBall[lv.j][u]]
		rec.Center = cl.center
		rec.CenterDist = s.a.Dist(u, cl.center)
		rec.BallRadius = s.pk.Balls[lv.j][s.ownerBall[lv.j][u]].Radius
		rec.RUj = s.a.RadiusOfSize(u, s.pk.Size(lv.j))
		rec.RUj1 = s.a.RadiusOfSize(u, s.pk.Size(lv.j+1))
		rec.DistUTtoDst = s.a.Dist(u, dst)
		rec.Claim46Holds = rec.RUj/(3*s.eps) < rec.DistUTtoDst &&
			(lv.j == s.pk.MaxJ() || rec.DistUTtoDst < rec.RUj1/5)
		// Route to the center.
		path, err := frozenTreeRoute(cl.tree, u, cl.tree.Label(cl.center))
		if err != nil {
			return nil, err
		}
		if err := tr.Walk(path); err != nil {
			return nil, err
		}
		rec.CenterCost = tr.Cost() - rec.PhaseACost
		// Search.
		before := tr.Cost()
		data, fnd, trail := cl.st.Search(label)
		for k := 0; k+1 < len(trail); k++ {
			if err := frozenCross(tr, cl.rz, trail[k+1], s.g.N()); err != nil {
				return nil, err
			}
		}
		for k := len(trail) - 1; k > 0; k-- {
			if err := frozenCross(tr, cl.rz, trail[k-1], s.g.N()); err != nil {
				return nil, err
			}
		}
		rec.SearchCost = tr.Cost() - before
		if !fnd {
			return nil, fmt.Errorf("labeled: explain: search failed at (j=%d, c=%d) — outside analyzed range", lv.j, cl.center)
		}
		before = tr.Cost()
		path, err = frozenTreeRoute(cl.tree, cl.center, data)
		if err != nil {
			return nil, err
		}
		if err := tr.Walk(path); err != nil {
			return nil, err
		}
		rec.FinalCost = tr.Cost() - before
		break
	}
	if tr.At() != dst {
		return nil, fmt.Errorf("labeled: explain ended at %d, want %d", tr.At(), dst)
	}
	if rec.Direct {
		rec.PhaseACost = tr.Cost()
	}
	rec.TotalCost = tr.Cost()
	rec.Optimal = s.a.Dist(src, dst)
	return rec, nil
}

// frozenTreeRoute is the tree route the loop took to and from the
// cell's center: NextHop from src until it reports arrival.
func frozenTreeRoute(s *treeroute.PortScheme, src int, dst treeroute.PortLabel) ([]int, error) {
	path := []int{src}
	cur := src
	for steps := 0; ; steps++ {
		next, arrived, err := s.NextHop(cur, dst)
		if err != nil {
			return nil, err
		}
		if arrived {
			return path, nil
		}
		if steps > s.Size() {
			return nil, errors.New("treeroute: routing loop")
		}
		cur = next
		path = append(path, cur)
	}
}

// frozenCross crosses the virtual edge from the trace's node to the
// tree node to, one NextHopToward hop at a time (at most n hops).
func frozenCross(tr *core.Trace, rz *searchtree.PathRealizer, to, n int) error {
	for hops := 0; tr.At() != to; hops++ {
		if hops > n {
			return fmt.Errorf("labeled: virtual edge to %d does not converge", to)
		}
		next, err := rz.NextHopToward(tr.At(), to)
		if err != nil {
			return err
		}
		if err := tr.Hop(next); err != nil {
			return err
		}
	}
	return nil
}

// TestExplainMatchesFrozenLoop pins Explain, an observer of the Step
// walk, to the frozen Algorithm 5 loop: every Phase5Trace field, floats
// by their bits, on five graph families at ε 0.25 and 0.1, sampled
// pairs plus self-routes (every pair on exp-path). Both must fail, or
// neither.
func TestExplainMatchesFrozenLoop(t *testing.T) {
	for fi, fam := range []string{"grid-holes", "geometric", "power-law", "exp-star", "exp-path"} {
		f, err := graph.LookupFamily(fam)
		if err != nil {
			t.Fatal(err)
		}
		n := 64
		if racetest.Enabled || fam == "exp-path" {
			n = 32
		}
		g, err := f.Make(n, int64(fi+3))
		if err != nil {
			t.Fatal(err)
		}
		a := metric.NewAPSP(g)
		pairs := core.SamplePairs(g.N(), 200, int64(fi+5))
		for v := 0; v < g.N(); v += 5 {
			pairs = append(pairs, [2]int{v, v})
		}
		if fam == "exp-path" {
			// Most phase-B handoffs at these sizes happen here.
			pairs = core.AllPairs(g.N())
		}
		for _, eps := range []float64{0.25, 0.1} {
			t.Run(fmt.Sprintf("%s/eps=%v", fam, eps), func(t *testing.T) {
				s, err := NewScaleFree(g, a, eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pairs {
					label := s.LabelOf(p[1])
					want, werr := s.frozenExplain(p[0], label)
					got, gerr := s.Explain(p[0], label)
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%v: Explain error %v, frozen loop error %v", p, gerr, werr)
					}
					if werr == nil && !samePhase5(got, want) {
						t.Fatalf("%v: Explain %+v, frozen loop %+v", p, *got, *want)
					}
					if gerr != nil {
						continue
					}
					r, err := s.RouteToLabel(p[0], label)
					if err != nil || math.Float64bits(r.Cost) != math.Float64bits(got.TotalCost) {
						t.Fatalf("%v: RouteToLabel cost %v (err %v), Explain TotalCost %v", p, r, err, got.TotalCost)
					}
				}
			})
		}
	}
}

func samePhase5(a, b *Phase5Trace) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Src == b.Src && a.Dst == b.Dst && a.PhaseAHops == b.PhaseAHops && same(a.PhaseACost, b.PhaseACost) &&
		a.Direct == b.Direct && a.IT == b.IT && a.J == b.J && a.UT == b.UT && a.Center == b.Center &&
		same(a.CenterCost, b.CenterCost) && same(a.CenterDist, b.CenterDist) && same(a.BallRadius, b.BallRadius) &&
		same(a.SearchCost, b.SearchCost) && same(a.FinalCost, b.FinalCost) && same(a.RUj, b.RUj) &&
		same(a.RUj1, b.RUj1) && same(a.DistUTtoDst, b.DistUTtoDst) && a.Claim46Holds == b.Claim46Holds &&
		same(a.TotalCost, b.TotalCost) && same(a.Optimal, b.Optimal)
}

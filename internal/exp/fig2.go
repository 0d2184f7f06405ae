package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/labeled"
)

// Fig2 regenerates Figure 2 — the anatomy of a labeled Algorithm 5
// delivery — as a per-phase-B-level table: how often routes hand off at
// each packing level j, the average cost of each leg (phase A walk,
// descent to the Voronoi center, Search Tree II round trip, final tree
// route), and how often the Claim 4.6 window
// r_{u_t}(j)/(3 eps) < d(u_t, v) < r_{u_t}(j+1)/5 held.
func Fig2(w io.Writer, e *Env, eps float64, pairCount int, seed int64) error {
	s, err := build[*labeled.ScaleFree](e, "scale-free-labeled", eps, seed)
	if err != nil {
		return err
	}
	pairs := e.Pairs(pairCount, seed)
	type agg struct {
		count        int
		phaseA       float64
		center       float64
		search       float64
		final        float64
		stretchSum   float64
		stretchMax   float64
		claim46Holds int
	}
	byJ := map[int]*agg{}
	direct := 0
	for _, p := range pairs {
		ex, err := s.Explain(p[0], s.LabelOf(p[1]))
		if err != nil {
			return err
		}
		if ex.Direct {
			direct++
			continue
		}
		a := byJ[ex.J]
		if a == nil {
			a = &agg{}
			byJ[ex.J] = a
		}
		a.count++
		a.phaseA += ex.PhaseACost
		a.center += ex.CenterCost
		a.search += ex.SearchCost
		a.final += ex.FinalCost
		st := ex.Stretch()
		a.stretchSum += st
		if st > a.stretchMax {
			a.stretchMax = st
		}
		if ex.Claim46Holds {
			a.claim46Holds++
		}
	}
	fmt.Fprintf(w, "Figure 2 — Algorithm 5 anatomy on %s (n=%d, eps=%v, %d pairs; %d direct phase-A deliveries)\n",
		e.Name, e.G.N(), eps, len(pairs), direct)
	js := sortedKeys(byJ)
	tw := newTab(w)
	fmt.Fprintln(tw, "phase-B level j\troutes\tavg phase A\tavg to-center\tavg search\tavg final\tavg stretch\tmax stretch\tClaim 4.6 holds")
	for _, j := range js {
		a := byJ[j]
		c := float64(a.count)
		fmt.Fprintf(tw, "%d\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f\t%.3f\t%d/%d\n",
			j, a.count, a.phaseA/c, a.center/c, a.search/c, a.final/c,
			a.stretchSum/c, a.stretchMax, a.claim46Holds, a.count)
	}
	return tw.Flush()
}

package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/nameind"
)

// Fig1 regenerates Figure 1 — the anatomy of a name-independent
// delivery (Algorithm 3) — as a per-found-level table: for routes whose
// destination label surfaced at level j, the average zooming cost
// (Sum d(u(i-1), u(i))), search cost (the 2*2^{i+1}/eps terms), and
// final labeled leg, against the level's ball radius 2^j/eps. It also
// checks Lemma 3.4's per-route inequality: total cost <=
// 2^{j+2}(1/eps+1) + d(u,v), inflated by the underlying scheme's
// (1+O(eps)) routing factor (Eqn 4).
func Fig1(w io.Writer, e *Env, eps float64, pairCount int, seed int64) error {
	s, err := build[*nameind.Simple](e, "name-independent", minf(eps, 0.25), seed)
	if err != nil {
		return err
	}
	pairs := e.Pairs(pairCount, seed)
	type agg struct {
		count      int
		zoom       float64
		search     float64
		final      float64
		stretchSum float64
		stretchMax float64
	}
	byLevel := map[int]*agg{}
	eqn4Violations := 0
	underB := 1 + 4*minf(eps, 0.25)/(1-minf(eps, 0.25))
	for _, p := range pairs {
		ex, err := s.Explain(p[0], s.NameOf(p[1]))
		if err != nil {
			return err
		}
		if len(ex.Levels) == 0 {
			continue // self or own-name short-circuit
		}
		last := ex.Levels[len(ex.Levels)-1]
		a := byLevel[last.Level]
		if a == nil {
			a = &agg{}
			byLevel[last.Level] = a
		}
		a.count++
		for _, lt := range ex.Levels {
			a.zoom += lt.ZoomCost
			a.search += lt.SearchCost
		}
		a.final += ex.FinalCost
		st := ex.Stretch()
		a.stretchSum += st
		if st > a.stretchMax {
			a.stretchMax = st
		}
		// Eqn (4): total <= (2^{j+2}(1/eps+1) + d(u,v)) * underlying factor.
		h := s.UnderlyingScheme().Hierarchy()
		bound := (4*h.Radius(last.Level)*(1/eps+1) + ex.Optimal) * underB
		if ex.TotalCost > bound+1e-9 {
			eqn4Violations++
		}
	}
	fmt.Fprintf(w, "Figure 1 — Algorithm 3 anatomy on %s (n=%d, eps=%v, %d pairs)\n",
		e.Name, e.G.N(), eps, len(pairs))
	levels := sortedKeys(byLevel)
	tw := newTab(w)
	fmt.Fprintln(tw, "found at level j\troutes\tavg zoom cost\tavg search cost\tavg final leg\tavg stretch\tmax stretch")
	for _, l := range levels {
		a := byLevel[l]
		c := float64(a.count)
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%.2f\t%.3f\t%.3f\n",
			l, a.count, a.zoom/c, a.search/c, a.final/c, a.stretchSum/c, a.stretchMax)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Eqn (4) violations: %d of %d routes\n", eqn4Violations, len(pairs))
	if eqn4Violations > 0 {
		return fmt.Errorf("exp: %d routes violate the Lemma 3.4 decomposition", eqn4Violations)
	}
	return nil
}

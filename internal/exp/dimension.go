package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
)

// Dimension regenerates the dependence on the doubling dimension: every
// theorem charges (1/eps)^O(alpha) storage, so on fractal families with
// tunable alpha (branching 2, 4, 8 at scale 2) table sizes must grow
// with alpha while stretch stays put. Sizes are matched (~256 nodes).
func Dimension(w io.Writer, eps float64, pairCount int, seed int64) error {
	eps = minf(eps, 0.25)
	fmt.Fprintf(w, "Doubling-dimension sweep (fractal networks, eps=%v)\n", eps)
	tw := newTab(w)
	fmt.Fprintln(tw, "branch\tn\talpha (greedy est.)\tlabeled SF max bits\tnameind SF max bits\tlabeled max stretch\tnameind max stretch")
	cases := []struct {
		branch, levels int
	}{{2, 8}, {4, 4}, {8, 3}}
	for _, c := range cases {
		g, err := graph.Fractal(c.levels, c.branch, 2)
		if err != nil {
			return err
		}
		a := metric.NewAPSP(g)
		e := &Env{Name: fmt.Sprintf("fractal b=%d", c.branch), G: g, A: a}
		alpha := metric.EstimateDoublingDimension(a, 300, seed)
		lab, err := labeled.NewScaleFree(g, a, eps)
		if err != nil {
			return err
		}
		ni, err := build[*nameind.ScaleFree](e, "scale-free-name-independent", eps, seed)
		if err != nil {
			return err
		}
		pairs := e.Pairs(pairCount, seed)
		ls, err := core.EvaluateLabeled(lab, a, pairs)
		if err != nil {
			return err
		}
		ns, err := core.EvaluateNameIndependent(ni, a, pairs)
		if err != nil {
			return err
		}
		lb := core.Tables(lab.TableBits, g.N())
		nb := core.Tables(ni.TableBits, g.N())
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%d\t%d\t%.3f\t%.3f\n",
			c.branch, g.N(), alpha, lb.MaxBits, nb.MaxBits, ls.Max, ns.Max)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(table bits rise with alpha — the (1/eps)^O(alpha) factor; stretch does not.)")
	return nil
}

package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/core"
	"compactrouting/internal/labeled"
	"compactrouting/internal/nameind"
)

// Epsilon regenerates the stretch/space trade-off in eps that all four
// theorem statements parameterize (experiment E7): for each eps, the
// measured stretch and the per-node table bits of each scheme. Stretch
// should fall and table bits rise as eps shrinks (the (1/eps)^O(alpha)
// factor).
func Epsilon(w io.Writer, e *Env, pairCount int, seed int64) error {
	pairs := e.Pairs(pairCount, seed)
	fmt.Fprintf(w, "Epsilon sweep (E7) on %s (n=%d, %d pairs)\n", e.Name, e.G.N(), len(pairs))
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\teps\tmax stretch\tmean stretch\tmax table bits\tavg table bits\tmax hdr bits")

	for _, eps := range []float64{0.1, 0.25, 0.5} {
		s, err := labeled.NewSimple(e.G, e.A, eps)
		if err != nil {
			return err
		}
		st, err := core.EvaluateLabeled(s, e.A, pairs)
		if err != nil {
			return err
		}
		tb := core.Tables(s.TableBits, e.G.N())
		fmt.Fprintf(tw, "labeled simple\t%.2f\t%.3f\t%.3f\t%d\t%.0f\t%d\n",
			eps, st.Max, st.Mean, tb.MaxBits, tb.MeanBits, st.MaxHeader)
	}
	for _, eps := range []float64{0.05, 0.1, 0.25} {
		s, err := labeled.NewScaleFree(e.G, e.A, eps)
		if err != nil {
			return err
		}
		st, err := core.EvaluateLabeled(s, e.A, pairs)
		if err != nil {
			return err
		}
		tb := core.Tables(s.TableBits, e.G.N())
		fmt.Fprintf(tw, "labeled scale-free\t%.2f\t%.3f\t%.3f\t%d\t%.0f\t%d\n",
			eps, st.Max, st.Mean, tb.MaxBits, tb.MeanBits, st.MaxHeader)
	}
	for _, eps := range []float64{0.1, 0.25, 1.0 / 3} {
		s, err := build[*nameind.Simple](e, "name-independent", eps, seed)
		if err != nil {
			return err
		}
		st, err := core.EvaluateNameIndependent(s, e.A, pairs)
		if err != nil {
			return err
		}
		tb := core.Tables(s.TableBits, e.G.N())
		fmt.Fprintf(tw, "nameind simple\t%.2f\t%.3f\t%.3f\t%d\t%.0f\t%d\n",
			eps, st.Max, st.Mean, tb.MaxBits, tb.MeanBits, st.MaxHeader)
	}
	for _, eps := range []float64{0.1, 0.2, 0.25} {
		s, err := build[*nameind.ScaleFree](e, "scale-free-name-independent", eps, seed)
		if err != nil {
			return err
		}
		st, err := core.EvaluateNameIndependent(s, e.A, pairs)
		if err != nil {
			return err
		}
		tb := core.Tables(s.TableBits, e.G.N())
		fmt.Fprintf(tw, "nameind scale-free\t%.2f\t%.3f\t%.3f\t%d\t%.0f\t%d\n",
			eps, st.Max, st.Mean, tb.MaxBits, tb.MeanBits, st.MaxHeader)
	}
	return tw.Flush()
}

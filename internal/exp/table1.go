package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
)

// Table1 regenerates the paper's Table 1 — name-independent routing
// schemes — with measured values from this implementation next to the
// paper's asymptotic bounds. Rows: Theorem 1.4 (simple, log Delta
// tables), Theorem 1.1 (scale-free), and the full-table baseline as the
// non-compact foil.
func Table1(w io.Writer, e *Env, eps float64, pairCount int, seed int64) error {
	pairs := e.Pairs(pairCount, seed)
	type row struct {
		name       string
		paperSt    string
		paperTable string
		paperHdr   string
		st         core.StretchStats
		tb         core.TableStats
	}
	var rows []row

	simple, err := build[*nameind.Simple](e, "name-independent", eps, seed)
	if err != nil {
		return err
	}
	st, err := core.EvaluateNameIndependent(simple, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "Thm 1.4 (simple)",
		paperSt:    "9+eps",
		paperTable: "(1/eps)^O(a) logD logn",
		paperHdr:   "O(log n)",
		st:         st,
		tb:         core.Tables(simple.TableBits, e.G.N()),
	})

	free, err := build[*nameind.ScaleFree](e, "scale-free-name-independent", eps, seed)
	if err != nil {
		return err
	}
	st, err = core.EvaluateNameIndependent(free, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "Thm 1.1 (scale-free)",
		paperSt:    "9+eps",
		paperTable: "(1/eps)^O(a) log^3 n",
		paperHdr:   "O(log^2n/loglogn)",
		st:         st,
		tb:         core.Tables(free.TableBits, e.G.N()),
	})

	full := baseline.NewFullTable(e.G, e.A)
	st, err = core.EvaluateNameIndependent(full, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "full-table baseline",
		paperSt:    "1",
		paperTable: "Theta(n log n)",
		paperHdr:   "O(log n)",
		st:         st,
		tb:         core.Tables(full.TableBits, e.G.N()),
	})

	fmt.Fprintf(w, "Table 1 — name-independent schemes on %s (n=%d, eps=%v, %d pairs, Delta=%.3g, alpha~%.1f)\n",
		e.Name, e.G.N(), eps, len(pairs), metric.NormalizedDiameterOf(e.A),
		metric.EstimateDoublingDimension(e.A, 100, seed))
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tpaper stretch\tmeas max\tmeas mean\tpaper table (bits)\tmeas max (bits)\tmeas avg (bits)\tpaper hdr\tmeas hdr (bits)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%s\t%d\t%.0f\t%s\t%d\n",
			r.name, r.paperSt, r.st.Max, r.st.Mean,
			r.paperTable, r.tb.MaxBits, r.tb.MeanBits,
			r.paperHdr, r.st.MaxHeader)
	}
	return tw.Flush()
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

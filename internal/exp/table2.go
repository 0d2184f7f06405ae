package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/tz"
)

// Table2 regenerates the paper's Table 2 — (1+eps)-stretch labeled
// routing schemes — with measured values. Rows: the simple labeled
// scheme (standing for the log(Delta)-table family of Talwar, Chan et
// al., Slivkins, and AGGM's first variant), Theorem 1.2 (scale-free),
// and the two baselines bracketing the trade-off.
func Table2(w io.Writer, e *Env, eps float64, pairCount int, seed int64) error {
	pairs := e.Pairs(pairCount, seed)
	labelBits := int(logn(e.G.N()))
	type row struct {
		name       string
		paperTable string
		paperHdr   string
		paperLbl   string
		lblBits    int
		st         core.StretchStats
		tb         core.TableStats
	}
	var rows []row

	simple, err := build[*labeled.Simple](e, "simple-labeled", eps, seed)
	if err != nil {
		return err
	}
	st, err := core.EvaluateLabeled(simple, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "simple labeled (logD family)",
		paperTable: "(1/eps)^O(a) logD logn",
		paperHdr:   "O(log n)",
		paperLbl:   "ceil(log n)",
		lblBits:    labelBits,
		st:         st,
		tb:         core.Tables(simple.TableBits, e.G.N()),
	})

	free, err := build[*labeled.ScaleFree](e, "scale-free-labeled", eps, seed)
	if err != nil {
		return err
	}
	st, err = core.EvaluateLabeled(free, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "Thm 1.2 (scale-free)",
		paperTable: "(1/eps)^O(a) log^3 n",
		paperHdr:   "O(log^2n/loglogn)",
		paperLbl:   "ceil(log n)",
		lblBits:    labelBits,
		st:         st,
		tb:         core.Tables(free.TableBits, e.G.N()),
	})

	tzs, err := tz.New(e.G, e.A, 1, seed)
	if err != nil {
		return err
	}
	st, err = core.EvaluateLabeled(tzs, e.A, pairs)
	if err != nil {
		return err
	}
	maxLbl := 0
	for v := 0; v < e.G.N(); v++ {
		if b := tzs.LabelBitsOf(v); b > maxLbl {
			maxLbl = b
		}
	}
	rows = append(rows, row{
		name:       "Thorup-Zwick k=2 (general graphs)",
		paperTable: "~O(sqrt(n)) words",
		paperHdr:   "O(log n)",
		paperLbl:   "O(log n)",
		lblBits:    maxLbl,
		st:         st,
		tb:         core.Tables(tzs.TableBits, e.G.N()),
	})

	tree, err := baseline.NewSingleTree(e.G, 0)
	if err != nil {
		return err
	}
	st, err = core.EvaluateLabeled(tree, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "single-tree baseline",
		paperTable: "O(log^2 n)",
		paperHdr:   "O(log^2 n)",
		paperLbl:   "O(log^2 n)",
		lblBits:    st.MaxHeader, // tree labels ride in the header
		st:         st,
		tb:         core.Tables(tree.TableBits, e.G.N()),
	})

	full := baseline.NewFullTable(e.G, e.A)
	st, err = core.EvaluateLabeled(full, e.A, pairs)
	if err != nil {
		return err
	}
	rows = append(rows, row{
		name:       "full-table baseline",
		paperTable: "Theta(n log n)",
		paperHdr:   "O(log n)",
		paperLbl:   "ceil(log n)",
		lblBits:    labelBits,
		st:         st,
		tb:         core.Tables(full.TableBits, e.G.N()),
	})

	fmt.Fprintf(w, "Table 2 — labeled schemes on %s (n=%d, eps=%v, %d pairs, Delta=%.3g)\n",
		e.Name, e.G.N(), eps, len(pairs), metric.NormalizedDiameterOf(e.A))
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tmeas max stretch\tmeas mean\tpaper table (bits)\tmeas max (bits)\tmeas avg (bits)\tpaper hdr\tmeas hdr (bits)\tlabel (bits)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%s\t%d\t%.0f\t%s\t%d\t%d\n",
			r.name, r.st.Max, r.st.Mean,
			r.paperTable, r.tb.MaxBits, r.tb.MeanBits,
			r.paperHdr, r.st.MaxHeader, r.lblBits)
	}
	return tw.Flush()
}

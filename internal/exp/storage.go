package exp

import (
	"fmt"
	"io"
	"math"

	"compactrouting/internal/core"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
)

// Storage regenerates the space-scaling claim behind Lemmas 3.3, 3.8
// and 4.4 (experiment E6): per-node table bits of the simple
// (log Delta) and scale-free (log^3 n) schemes on a unit-weight path
// versus an exponential-weight path of the same size. On the unit path
// the two schemes are comparable; on the exponential path the simple
// schemes blow up with log(Delta) while the scale-free schemes stay
// put — the separation that makes Theorems 1.1/1.2 "scale-free".
func Storage(w io.Writer, sizes []int, base float64, seed int64) error {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128}
	}
	fmt.Fprintf(w, "Storage scaling (E6) — max table bits/node, unit path vs exponential path (weight base %v)\n", base)
	tw := newTab(w)
	fmt.Fprintln(tw, "n\tlog2(Delta) unit\tlog2(Delta) exp\tlabeled simple unit\tlabeled simple exp\tlabeled scale-free unit\tlabeled scale-free exp\tnameind simple unit\tnameind simple exp\tnameind scale-free unit\tnameind scale-free exp")
	for _, n := range sizes {
		unit, err := UnitPathEnv(n)
		if err != nil {
			return err
		}
		expo, err := ExpPathEnv(n, base)
		if err != nil {
			return err
		}
		row := []float64{
			math.Log2(metric.NormalizedDiameterOf(unit.A)),
			math.Log2(metric.NormalizedDiameterOf(expo.A)),
		}
		for _, e := range []*Env{unit, expo} {
			s, err := labeled.NewSimple(e.G, e.A, 0.25)
			if err != nil {
				return err
			}
			row = append(row, float64(core.Tables(s.TableBits, n).MaxBits))
		}
		for _, e := range []*Env{unit, expo} {
			s, err := labeled.NewScaleFree(e.G, e.A, 0.25)
			if err != nil {
				return err
			}
			row = append(row, float64(core.Tables(s.TableBits, n).MaxBits))
		}
		for _, e := range []*Env{unit, expo} {
			s, err := build[*nameind.Simple](e, "name-independent", 0.25, seed)
			if err != nil {
				return err
			}
			row = append(row, float64(core.Tables(s.TableBits, n).MaxBits))
		}
		for _, e := range []*Env{unit, expo} {
			s, err := build[*nameind.ScaleFree](e, "scale-free-name-independent", 0.25, seed)
			if err != nil {
				return err
			}
			row = append(row, float64(core.Tables(s.TableBits, n).MaxBits))
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f", n, row[0], row[1])
		// Reorder interleaved columns: simple unit/exp, free unit/exp, ...
		for i := 2; i < len(row); i++ {
			fmt.Fprintf(tw, "\t%.0f", row[i])
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Growth with n on a doubling family: bits per node vs log^3 n.
	fmt.Fprintln(w, "\nGrowth on geometric graphs — scale-free labeled max table bits vs log^3 n:")
	tw = newTab(w)
	fmt.Fprintln(tw, "n\tmax bits\tlog^3 n\tbits / log^3 n")
	for _, n := range sizes {
		e, err := GeometricEnv(n, seed)
		if err != nil {
			return err
		}
		s, err := labeled.NewScaleFree(e.G, e.A, 0.25)
		if err != nil {
			return err
		}
		mb := core.Tables(s.TableBits, e.G.N()).MaxBits
		l3 := math.Pow(math.Log2(float64(e.G.N())), 3)
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.2f\n", e.G.N(), mb, l3, float64(mb)/l3)
	}
	return tw.Flush()
}

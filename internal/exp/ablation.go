package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/ballpack"
	"compactrouting/internal/core"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/searchtree"
	"compactrouting/internal/treeroute"
)

// Ablation isolates the design choices DESIGN.md calls out and
// measures what each buys:
//
//  1. ring radius factor in the labeled scheme (stretch vs table bits);
//  2. greedy-by-radius packing-ball selection (Lemma 2.3's Property 2
//     survives) vs arbitrary order (witnesses get lost);
//  3. heavy-path child order in tree routing (log n light entries) vs
//     id order (labels blow up with depth);
//  4. search-tree refinement rate eps (height/cost vs node degree).
func Ablation(w io.Writer, e *Env, pairCount int, seed int64) error {
	pairs := e.Pairs(pairCount, seed)

	// (1) Ring factor.
	fmt.Fprintf(w, "Ablation on %s (n=%d, %d pairs)\n", e.Name, e.G.N(), len(pairs))
	fmt.Fprintln(w, "\n(1) labeled-simple ring radius factor F (rings = B_u(F*2^i/eps) ∩ Y_i), eps=0.25:")
	tw := newTab(w)
	fmt.Fprintln(tw, "F\tmax stretch\tmean stretch\tmax table bits\tanalytic bound")
	for _, f := range []float64{1, 1.5, 2, 3, 4} {
		s, err := labeled.NewSimpleRingFactor(e.G, e.A, 0.25, f)
		if err != nil {
			return err
		}
		st, err := core.EvaluateLabeled(s, e.A, pairs)
		if err != nil {
			// Small factors can strand packets (the zooming ancestor
			// escapes the ring): that IS the ablation's finding.
			fmt.Fprintf(tw, "%.1f\tROUTING FAILS\t-\t-\t%.3f\n", f, s.StretchBound())
			continue
		}
		tb := core.Tables(s.TableBits, e.G.N())
		fmt.Fprintf(tw, "%.1f\t%.3f\t%.3f\t%d\t%.3f\n", f, st.Max, st.Mean, tb.MaxBits, s.StretchBound())
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// (2) Packing selection order.
	fmt.Fprintln(w, "\n(2) packing-ball selection order (Lemma 2.3 Property 2 witness coverage):")
	tw = newTab(w)
	fmt.Fprintln(tw, "ball size\tby-radius: covered\tmean d/(2r)\tby-id: covered\tmean d/(2r)")
	for _, size := range []int{4, 16, 64} {
		if size > e.G.N() {
			break
		}
		radiusBalls := ballpack.BuildLevelOrdered(e.A, size, true)
		idBalls := ballpack.BuildLevelOrdered(e.A, size, false)
		okR, meanR, _ := ballpack.WitnessQuality(e.A, radiusBalls, size)
		okI, meanI, _ := ballpack.WitnessQuality(e.A, idBalls, size)
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\t%.3f\n", size, okR, meanR, okI, meanI)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// (3) Tree-routing child order.
	fmt.Fprintln(w, "\n(3) tree-routing child order (label sizes on the metric's shortest-path tree):")
	spt := metric.Dijkstra(e.G, 0)
	parent := make([]int, e.G.N())
	copy(parent, spt.Parent)
	parent[0] = -1
	tw = newTab(w)
	fmt.Fprintln(tw, "order\tmax label bits\tmax light entries")
	for _, ord := range []struct {
		name string
		o    treeroute.ChildOrder
	}{{"heavy-first", treeroute.HeavyFirst}, {"id-order", treeroute.IDOrder}} {
		sch, err := treeroute.NewOrdered(parent, 0, ord.o)
		if err != nil {
			return err
		}
		maxBits, maxLight := 0, 0
		for v := 0; v < e.G.N(); v++ {
			if b := sch.LabelBits(v); b > maxBits {
				maxBits = b
			}
			if l := len(sch.Label(v).Light); l > maxLight {
				maxLight = l
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\n", ord.name, maxBits, maxLight)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// (4) Search-tree refinement rate.
	fmt.Fprintln(w, "\n(4) search-tree eps (net radius shrink rate) on the diameter ball:")
	tw = newTab(w)
	fmt.Fprintln(tw, "eps\theight/(radius)\tmax degree\tlevels")
	radius := metric.DiameterOf(e.A)
	for _, eps := range []float64{0.1, 0.25, 0.5, 0.9} {
		t, err := searchtree.New[int](e.A, 0, radius, searchtree.Config{
			Eps:          eps,
			MinNetRadius: e.A.MinPairDistance(),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.2f\t%.3f\t%d\t%d\n",
			eps, t.Height()/radius, t.MaxDegree(), t.NumLevels())
	}
	return tw.Flush()
}

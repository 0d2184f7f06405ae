package exp

import (
	"fmt"
	"io"

	"compactrouting/internal/core"
	"compactrouting/internal/lowerbound"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
)

// Fig3 regenerates Figure 3 and the Theorem 1.3 lower bound as three
// numeric series:
//
//  1. the counterexample tree's verified metric properties (node
//     count, normalized diameter vs bound, doubling dimension estimate
//     vs Lemma 5.8's bound);
//  2. the exact minimax stretch of the branch-search game on the
//     paper's weight grid, rising to 1 + 8q/(q+1) -> 9 as p and q grow
//     (the operational content of Claims 5.9-5.11);
//  3. the geometric-strategy base sweep 1 + 2b^2/(b-1), minimized at
//     b = 2 with value 9 — where the schemes' stretch constant comes
//     from;
//
// and closes the loop by running the Theorem 1.4 scheme on the tree
// itself, confirming its stretch stays below its upper bound.
func Fig3(w io.Writer, pairCount int, seed int64) error {
	fmt.Fprintln(w, "Figure 3 / Theorem 1.3 — the stretch-9 lower bound")

	// (1) Tree properties.
	params := lowerbound.Params{P: 4, Q: 2}
	n := 512
	tree, err := lowerbound.Build(params, n)
	if err != nil {
		return err
	}
	a := metric.NewAPSP(tree.G)
	alpha := metric.EstimateDoublingDimension(a, 400, seed)
	fmt.Fprintf(w, "\ncounterexample tree G(p=%d, q=%d, n=%d): Delta=%.4g (bound %.4g), doubling~%.2f (Lemma 5.8 bound log2(q+2)=%.2f; greedy estimate may reach 2x+2)\n",
		params.P, params.Q, n, a.NormalizedDiameter(), params.NormalizedDiameterBound(n),
		alpha, params.DoublingDimensionBound())

	// (2) Minimax search-game stretch vs (p, q).
	tw := newTab(w)
	fmt.Fprintln(tw, "\np\tq\tbranches\toptimal minimax stretch\tlimit 1+8q/(q+1)")
	for _, q := range []int{4, 12, 44} {
		for _, p := range []int{8, 16, 40} {
			opt, _, err := lowerbound.OptimalStretch(lowerbound.Params{P: p, Q: q}.Weights())
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.4f\t%.4f\n", p, q, p*q, opt, 1+8*float64(q)/float64(q+1))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// (3) Geometric base sweep.
	tw = newTab(w)
	fmt.Fprintln(tw, "\ngeometric base b\tsup stretch 1+2b^2/(b-1)")
	for _, b := range []float64{1.25, 1.5, 1.75, 2, 2.5, 3, 4} {
		fmt.Fprintf(tw, "%.2f\t%.4f\n", b, lowerbound.GeometricRatio(b))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	base, ratio := lowerbound.BestGeometricBase()
	fmt.Fprintf(w, "minimum at b=%.3f: %.4f (the 9 of Theorems 1.1/1.3)\n", base, ratio)

	// (4) Upper bound meets lower bound: Theorem 1.4 on the tree.
	env := &Env{Name: "lower-bound tree", G: tree.G, A: a}
	eps := 0.25
	s, _, err := build[*nameind.Simple](env, "name-independent", eps, seed)
	if err != nil {
		return err
	}
	st, err := core.EvaluateNameIndependent(s, a, env.Pairs(pairCount, seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nThm 1.4 scheme on the tree (eps=%v): max stretch %.3f, mean %.3f (bound %.1f; lower bound says no compact scheme beats ~9)\n",
		eps, st.Max, st.Mean, s.StretchBound())

	// (5) Counting lemma: congruent-naming family sizes.
	fmt.Fprintf(w, "counting (Lemma 5.4): with beta=16-bit tables, c=4: log2 |L_3| >= %.0f bits of naming freedom at n=2^16\n",
		lowerbound.LogCongruentFamilySize(1<<16, 16.0, 4, 3))

	// (6) Lemmas 5.4-5.5 executed exactly on a brute-forceable star
	// (7 nodes, all 5040 namings): the congruent family sizes per
	// partition class and the ambiguous target name the adversary uses.
	partition := [][]int{{0}, {1, 2}, {3, 4, 5, 6}}
	cover := make([][]int, 7)
	for _, class := range partition {
		for _, v := range class {
			cover[v] = append([]int{0}, class...)
		}
	}
	res := lowerbound.CongruentFamilies(7, 2, partition, lowerbound.NeighborhoodConfig(cover))
	fmt.Fprintf(w, "\nexact Lemma 5.4 on a 7-node star with 2-bit tables (all 5040 namings):\n")
	for i, size := range res.FamilySizes {
		fmt.Fprintf(w, "  |L_%d| = %d (bound %.1f)\n", i, size, res.Bound[i])
	}
	if name, class, ok := lowerbound.AmbiguousName(res, partition, 7); ok {
		fmt.Fprintf(w, "  Lemma 5.5: name %d may or may not live in branch class %d — the prefix tables cannot tell\n", name, class)
	} else {
		return fmt.Errorf("exp: no ambiguous name on the demo star")
	}
	return nil
}

package metric

import (
	"fmt"

	"compactrouting/internal/par"
)

// RestoreAPSP rebuilds an APSP oracle from its serialized matrices
// (dist and nextHop, both row-major [u*n+v]) without re-running any
// Dijkstra. NewAPSP takes its order rows from the kernel's settle
// sequence; restore has no kernel run, so it sorts each distance row
// by (distance, node id) — the order that sequence is (pinned on
// tie-heavy grids by TestRestoreAPSPAgreesOnTies) — and a restored
// oracle is indistinguishable from a freshly built one.
//
// The slices are retained, not copied.
func RestoreAPSP(n int, dist []float64, nextHop []int32) (*APSP, error) {
	if n < 1 {
		return nil, fmt.Errorf("metric: restore with n=%d", n)
	}
	if len(dist) != n*n || len(nextHop) != n*n {
		return nil, fmt.Errorf("metric: restore matrices have %d/%d entries, want %d", len(dist), len(nextHop), n*n)
	}
	a := &APSP{
		n:       n,
		dist:    dist,
		nextHop: nextHop,
		order:   make([]int32, n*n),
	}
	par.For(n, func(u int) {
		perm := a.order[u*n : (u+1)*n]
		for i := range perm {
			perm[i] = int32(i)
		}
		sortByDist(perm, a.dist[u*n:(u+1)*n])
	})
	return a, nil
}

// Matrices exposes the serializable state of the oracle: the distance
// and next-hop matrices, row-major. The returned slices alias the
// oracle's internal storage; callers must not mutate them.
func (a *APSP) Matrices() (dist []float64, nextHop []int32) {
	return a.dist, a.nextHop
}

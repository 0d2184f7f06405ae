package metric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"compactrouting/internal/gate"
	"compactrouting/internal/graph"
)

// This file pins the shared sssp kernel against a frozen reference
// that computes the same bytes by a different algorithm: a
// lazy-deletion binary heap keyed by (distance, parent, node) that may
// queue a node many times, followed by an explicit (distance, id) sort
// of every order row. The dense and lazy backends run on one kernel,
// so agreement between them cannot catch a kernel bug; agreement with
// this reference can. Do not "simplify" the reference toward the
// kernel — its value is that it is a different algorithm.

type refItem struct {
	node  int
	dist  float64
	owner int
}

type refPQ []refItem

func refLess(a, b refItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.node < b.node
}

func (h *refPQ) push(it refItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *refPQ) pop() refItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && refLess(old[r], old[l]) {
			c = r
		}
		if !refLess(old[c], old[i]) {
			break
		}
		old[i], old[c] = old[c], old[i]
		i = c
	}
	return top
}

// refDijkstra is the reference single-source run: distances, min-id
// parents among equal-distance relaxations, and the (distance, id)
// order of all nodes by explicit sort.
func refDijkstra(g *graph.Graph, src int) (dist []float64, parent []int, order []int32) {
	n := g.N()
	dist = make([]float64, n)
	parent = make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	h := make(refPQ, 0, n)
	h.push(refItem{node: src, dist: 0, owner: -1})
	for len(h) > 0 {
		it := h.pop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, e := range g.Neighbors(v) {
			nd := it.dist + e.Weight
			w := e.To
			if nd < dist[w] || (nd == dist[w] && !done[w] && (parent[w] == -1 || v < parent[w])) {
				dist[w] = nd
				parent[w] = v
				h.push(refItem{node: w, dist: nd, owner: v})
			}
		}
	}
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := dist[order[i]], dist[order[j]]
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return dist, parent, order
}

// refRun is one source's reference output.
type refRun struct {
	dist   []float64
	parent []int
	order  []int32
}

func refRuns(g *graph.Graph) []refRun {
	runs := make([]refRun, g.N())
	for u := range runs {
		runs[u].dist, runs[u].parent, runs[u].order = refDijkstra(g, u)
	}
	return runs
}

// smallIntGraph is a connected random graph with weights in {1, 2, 3}:
// a random spanning tree plus extra random edges, so equal-length
// paths and equal-distance frontiers are everywhere.
func smallIntGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	add := func(u, v int) {
		if err := b.AddEdge(u, v, float64(1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		add(v, rng.Intn(v))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			add(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// kernelRefGraphs is the reference suite's graph matrix. rounding
// marks graphs where d + w rounds back to d on some shortest path, so
// the kernel must take its re-sort fallback; everywhere else the
// settle order has to be the order row by itself.
func kernelRefGraphs(t *testing.T) []struct {
	name     string
	g        *graph.Graph
	rounding bool
} {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	geo, _, err := graph.RandomGeometric(300, 1.8*math.Sqrt(math.Log(300)/300), 3)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name     string
		g        *graph.Graph
		rounding bool
	}{
		{"geometric", geo, false},
		{"power-law", must(graph.PowerLaw(300, 2, 1024, 3)), false},
		{"unit-grid-20x20", must(graph.Grid(20, 20)), false},
		{"small-int-random", smallIntGraph(t, 300, 3), false},
		// Edge i weighs 4^i: from the heavy end, every edge below
		// ~4^36 vanishes into the rounding of the path length, so a
		// whole run of nodes ties at one distance in descending-id
		// settle order.
		{"exponential-path", must(graph.ExponentialPath(64, 4)), true},
	}
}

// TestKernelMatchesFrozenReference pins NewAPSP, Dijkstra and lazy rows
// byte for byte against the reference: distances by Float64bits,
// next hops, parents and order rows exactly.
func TestKernelMatchesFrozenReference(t *testing.T) {
	for _, tc := range kernelRefGraphs(t) {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.N()
			ref := refRuns(g)

			// The fallback sort must fire exactly where rounding
			// breaks strict predecessor order, and nowhere else: on
			// the other graphs the bytes must come from the settle
			// order itself.
			s := newSSSP(n)
			rounded := false
			for u := 0; u < n; u++ {
				s.run(g, u)
				rounded = rounded || s.unsorted
				s.reset()
			}
			if rounded != tc.rounding {
				t.Fatalf("kernel re-sorted some row: %v, want %v", rounded, tc.rounding)
			}

			for u := 0; u < n; u++ {
				spt := Dijkstra(g, u)
				for v := 0; v < n; v++ {
					if !eqBits(spt.Dist[v], ref[u].dist[v]) || spt.Parent[v] != ref[u].parent[v] {
						t.Fatalf("Dijkstra(%d) at %d: (%v, %d), reference (%v, %d)",
							u, v, spt.Dist[v], spt.Parent[v], ref[u].dist[v], ref[u].parent[v])
					}
				}
			}

			for _, procs := range gate.Procs {
				t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
					gate.WithProcs(procs, func() {
						checkAPSPAgainstRef(t, NewAPSP(g), ref)
						checkLazyAgainstRef(t, g, ref)
					})
				})
			}
		})
	}
}

func checkAPSPAgainstRef(t *testing.T, a *APSP, ref []refRun) {
	t.Helper()
	n := a.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if !eqBits(a.Dist(u, v), ref[u].dist[v]) {
				t.Fatalf("NewAPSP dist(%d,%d) = %v, reference %v", u, v, a.Dist(u, v), ref[u].dist[v])
			}
			// nextHop[u][v] is u's parent in the tree rooted at v.
			if a.NextHop(u, v) != ref[v].parent[u] {
				t.Fatalf("NewAPSP nextHop(%d,%d) = %d, reference %d", u, v, a.NextHop(u, v), ref[v].parent[u])
			}
			if int32(a.Kth(u, v)) != ref[u].order[v] {
				t.Fatalf("NewAPSP order[%d][%d] = %d, reference %d", u, v, a.Kth(u, v), ref[u].order[v])
			}
		}
	}
}

// checkLazyAgainstRef builds full rows through PrefetchBalls (on the
// worker pool) and truncated rows through each stop condition, and
// requires every row to be an exact prefix of the reference order row.
func checkLazyAgainstRef(t *testing.T, g *graph.Graph, ref []refRun) {
	t.Helper()
	n := g.N()
	o := NewLazyOracleOpts(g, LazyOpts{MaxEntries: n * n})
	all := make([]int, n)
	for u := range all {
		all[u] = u
	}
	o.PrefetchBalls(all, math.Inf(1))
	for u := 0; u < n; u++ {
		row := o.rows[rowKey{o.gen, int32(u)}]
		if row == nil || !row.complete {
			t.Fatalf("PrefetchBalls left row %d incomplete", u)
		}
		checkRowPrefix(t, "prefetched", row, ref[u])
	}
	s := newSSSP(n)
	for u := 0; u < n; u += 7 {
		far := int(ref[u].order[n-1])
		for _, stop := range []buildStop{
			{radius: ref[u].dist[far] / 3, node: -1},
			{radius: math.Inf(1), count: 1 + u%n, node: -1},
			{radius: math.Inf(1), node: int(ref[u].order[n/2])},
		} {
			checkRowPrefix(t, fmt.Sprintf("stop %+v", stop), buildRow(s, g, u, 0, stop), ref[u])
		}
	}
}

func checkRowPrefix(t *testing.T, what string, row *lazyRow, ref refRun) {
	t.Helper()
	u := int(row.key.u)
	if len(row.nodes) == 0 || len(row.dist) != len(row.nodes) || len(row.parent) != len(row.nodes) {
		t.Fatalf("%s row %d: malformed (%d nodes, %d dist, %d parent)", what, u, len(row.nodes), len(row.dist), len(row.parent))
	}
	for i, v := range row.nodes {
		if v != ref.order[i] {
			t.Fatalf("%s row %d: entry %d is node %d, reference %d", what, u, i, v, ref.order[i])
		}
		if !eqBits(row.dist[i], ref.dist[v]) || int(row.parent[i]) != ref.parent[v] {
			t.Fatalf("%s row %d: node %d (%v, %d), reference (%v, %d)",
				what, u, v, row.dist[i], row.parent[i], ref.dist[v], ref.parent[v])
		}
		if row.idx[v] != int32(i) {
			t.Fatalf("%s row %d: idx[%d] = %d, want %d", what, u, v, row.idx[v], i)
		}
	}
}

// TestRestoreAPSPAgreesOnTies checks that the sort RestoreAPSP keeps
// reproduces the kernel's settle-order rows on tie-heavy inputs: a
// unit-weight grid (every distance a small integer) and the rounding
// exponential path.
func TestRestoreAPSPAgreesOnTies(t *testing.T) {
	grid, err := graph.Grid(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	path, err := graph.ExponentialPath(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"unit-grid-20x20": grid, "exponential-path": path} {
		built := NewAPSP(g)
		dist, nextHop := built.Matrices()
		restored, err := RestoreAPSP(g.N(), dist, nextHop)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		for u := 0; u < n; u++ {
			for k := 0; k < n; k++ {
				if restored.Kth(u, k) != built.Kth(u, k) {
					t.Fatalf("%s: restored order[%d][%d] = %d, built %d", name, u, k, restored.Kth(u, k), built.Kth(u, k))
				}
			}
		}
	}
}

// TestNewAPSPAllocsFlatInN pins that the kernel's scratch is per
// worker, not per source: the allocation count of a whole build does
// not grow with n (AllocsPerRun runs at GOMAXPROCS=1, so one worker).
func TestNewAPSPAllocsFlatInN(t *testing.T) {
	allocs := func(side int) float64 {
		g, err := graph.Grid(side, side)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { NewAPSP(g) })
	}
	small, large := allocs(8), allocs(24)
	if large != small {
		t.Fatalf("NewAPSP allocations grow with n: %v at n=64, %v at n=576", small, large)
	}
	if large > 16 {
		t.Fatalf("NewAPSP makes %v allocations, want at most 16 (three matrices plus one scratch)", large)
	}
}

package searchtree

import (
	"math"
	"math/rand"
	"testing"

	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

func geo(t *testing.T, n int, seed int64) (*graph.Graph, *metric.APSP) {
	t.Helper()
	g, _, err := graph.RandomGeometric(n, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, metric.NewAPSP(g)
}

func buildTree(t *testing.T, a *metric.APSP, center int, radius float64, maxLevels int) *Tree[int] {
	t.Helper()
	tr, err := New[int](a, center, radius, Config{
		Eps:          0.5,
		MaxLevels:    maxLevels,
		MinNetRadius: a.MinPairDistance(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTreeCoversBall(t *testing.T) {
	_, a := geo(t, 150, 1)
	tr := buildTree(t, a, 3, a.Diameter()/3, 0)
	ball := a.Ball(3, a.Diameter()/3)
	if tr.Len() != len(ball) {
		t.Fatalf("tree has %d members, ball has %d", tr.Len(), len(ball))
	}
	for _, v := range ball {
		if tr.Pos(v) < 0 {
			t.Fatalf("ball node %d missing from tree", v)
		}
	}
	// Every non-root node's parent is a tree node one level up.
	for p := 0; p < tr.Len(); p++ {
		v, pp, lvl := tr.Member(p), tr.Parent(p), int(tr.level[p])
		if v == tr.Center {
			if pp != -1 {
				t.Fatal("center has a parent")
			}
			continue
		}
		if pp < 0 {
			t.Fatalf("node %d has no parent", v)
		}
		if lvl >= 0 && int(tr.level[pp]) != lvl-1 {
			t.Fatalf("node %d at level %d has parent at level %d", v, lvl, tr.level[pp])
		}
		if lvl >= 0 && math.Abs(tr.node[p].edgeW-a.Dist(v, tr.Member(pp))) > 1e-9 {
			t.Fatalf("edge weight %v != distance %v", tr.node[p].edgeW, a.Dist(v, tr.Member(pp)))
		}
	}
}

func TestTreeHeightBound(t *testing.T) {
	_, a := geo(t, 150, 2)
	for _, radius := range []float64{a.Diameter() / 4, a.Diameter() / 2, a.Diameter()} {
		tr := buildTree(t, a, 0, radius, 0)
		// Equation (3): height <= (1+eps)r; tails (none here) add O(eps r).
		if h := tr.Height(); h > (1+tr.Eps)*radius+1e-9 {
			t.Fatalf("height %v > (1+eps)r = %v", h, (1+tr.Eps)*radius)
		}
	}
}

func TestNetLevelsAreNets(t *testing.T) {
	_, a := geo(t, 120, 3)
	tr := buildTree(t, a, 5, a.Diameter()/2, 0)
	for lvl := 1; lvl < tr.NumLevels(); lvl++ {
		rho := tr.LevelRadius(lvl)
		net := tr.Level(lvl)
		for i := 0; i < len(net); i++ {
			for j := i + 1; j < len(net); j++ {
				if d := a.Dist(int(net[i]), int(net[j])); d < rho && rho > a.MinPairDistance() {
					t.Fatalf("level %d: nodes %d,%d at distance %v < rho=%v",
						lvl, net[i], net[j], d, rho)
				}
			}
		}
	}
}

func TestStoreAndSearchAll(t *testing.T) {
	_, a := geo(t, 150, 4)
	tr := buildTree(t, a, 7, a.Diameter(), 0)
	// Store one pair per member: key = 1000 + node id, data = node id.
	pairs := make([]Pair[int], tr.Len())
	for i := range pairs {
		v := tr.Member(i)
		pairs[i] = Pair[int]{Key: 1000 + v, Data: v}
	}
	tr.Store(pairs)
	for p := 0; p < tr.Len(); p++ {
		v := tr.Member(p)
		data, found, trail := tr.Search(1000 + v)
		if !found || data != v {
			t.Fatalf("Search(%d) = %d,%v", 1000+v, data, found)
		}
		if trail[0] != tr.Center {
			t.Fatalf("trail starts at %d, not center", trail[0])
		}
		// Trail must follow parent-child virtual edges.
		for i := 1; i < len(trail); i++ {
			if tr.Member(tr.Parent(tr.Pos(trail[i]))) != trail[i-1] {
				t.Fatalf("trail hop %d -> %d is not a tree edge", trail[i-1], trail[i])
			}
		}
	}
}

func TestSearchAbsentKey(t *testing.T) {
	_, a := geo(t, 100, 5)
	tr := buildTree(t, a, 0, a.Diameter(), 0)
	pairs := []Pair[int]{{Key: 10, Data: 1}, {Key: 20, Data: 2}, {Key: 30, Data: 3}}
	tr.Store(pairs)
	for _, key := range []int{5, 15, 25, 999} {
		if _, found, _ := tr.Search(key); found {
			t.Fatalf("Search(%d) found a pair", key)
		}
	}
	for _, p := range pairs {
		if d, found, _ := tr.Search(p.Key); !found || d != p.Data {
			t.Fatalf("Search(%d) = %d,%v", p.Key, d, found)
		}
	}
}

func TestStoreQuotaEven(t *testing.T) {
	_, a := geo(t, 120, 6)
	tr := buildTree(t, a, 0, a.Diameter(), 0)
	m := tr.Len()
	// k = 4m pairs: every node must hold exactly 4.
	pairs := make([]Pair[int], 4*m)
	for i := range pairs {
		pairs[i] = Pair[int]{Key: i, Data: i}
	}
	tr.Store(pairs)
	for p := 0; p < m; p++ {
		if got := len(tr.Pairs(p)); got != 4 {
			t.Fatalf("node %d holds %d pairs, want 4", tr.Member(p), got)
		}
	}
	// And every key must be retrievable.
	for i := range pairs {
		if d, found, _ := tr.Search(i); !found || d != i {
			t.Fatalf("Search(%d) = %d,%v", i, d, found)
		}
	}
}

func TestSearchCostBound(t *testing.T) {
	// Virtual descent cost <= height <= (1+eps)r, so the round trip is
	// <= 2(1+eps)r — the cost bound Lemma 3.4 charges per level.
	_, a := geo(t, 150, 7)
	radius := a.Diameter() / 2
	tr := buildTree(t, a, 0, radius, 0)
	pairs := make([]Pair[int], tr.Len())
	for i := range pairs {
		v := tr.Member(i)
		pairs[i] = Pair[int]{Key: v, Data: v}
	}
	tr.Store(pairs)
	for p := 0; p < tr.Len(); p++ {
		v := tr.Member(p)
		_, found, trail := tr.Search(v)
		if !found {
			t.Fatalf("key %d not found", v)
		}
		if c := tr.VirtualCost(trail); c > (1+tr.Eps)*radius+1e-9 {
			t.Fatalf("descent cost %v > (1+eps)r = %v", c, (1+tr.Eps)*radius)
		}
	}
}

func TestSingletonTree(t *testing.T) {
	_, a := geo(t, 50, 8)
	tr := buildTree(t, a, 9, 0, 0)
	if tr.Len() != 1 {
		t.Fatalf("radius-0 tree has %d members", tr.Len())
	}
	tr.Store([]Pair[int]{{Key: 42, Data: 7}})
	d, found, trail := tr.Search(42)
	if !found || d != 7 || len(trail) != 1 {
		t.Fatalf("singleton search = %d,%v,%v", d, found, trail)
	}
}

func TestCappedLevelsBuildTails(t *testing.T) {
	_, a := geo(t, 200, 9)
	tr := buildTree(t, a, 0, a.Diameter(), 2)
	if tr.NumLevels() > 3 { // levels 0,1,2
		t.Fatalf("levels = %d, want <= 3", tr.NumLevels())
	}
	// All ball members must still be in the tree.
	ball := a.Ball(0, a.Diameter())
	if tr.Len() != len(ball) {
		t.Fatalf("capped tree lost members: %d vs %d", tr.Len(), len(ball))
	}
	var top []int
	for _, v := range tr.Level(tr.NumLevels() - 1) {
		top = append(top, int(v))
	}
	tails := 0
	for i := 0; i < len(tr.tailSite); i++ {
		s := int(tr.tailSite[i])
		tails += len(tr.Tail(i))
		// Tail nodes must be assigned to their nearest site.
		for _, v := range tr.Tail(i) {
			got, _ := a.Nearest(int(v), top)
			if got != s {
				t.Fatalf("tail node %d under site %d, nearest is %d", v, s, got)
			}
		}
	}
	if tails == 0 {
		t.Fatal("capping at 2 levels should have produced tails")
	}
	// Tail paths use the fixed virtual weight.
	if tr.TailEdgeW != 2*tr.Eps*tr.Radius/float64(a.N()) {
		t.Fatalf("tail edge weight %v", tr.TailEdgeW)
	}
	// Height stays (1+O(eps))r: tails add at most 2*eps*r in total.
	if h := tr.Height(); h > (1+3*tr.Eps)*tr.Radius {
		t.Fatalf("capped height %v > (1+3eps)r", h)
	}
	// Search still finds everything.
	pairs := make([]Pair[int], tr.Len())
	for i := range pairs {
		v := tr.Member(i)
		pairs[i] = Pair[int]{Key: v, Data: v}
	}
	tr.Store(pairs)
	for p := 0; p < tr.Len(); p++ {
		v := tr.Member(p)
		if d, found, _ := tr.Search(v); !found || d != v {
			t.Fatalf("capped Search(%d) = %d,%v", v, d, found)
		}
	}
}

func TestRealizerWalksAndStorage(t *testing.T) {
	g, a := geo(t, 150, 10)
	tr := buildTree(t, a, 0, a.Diameter(), 3)
	pairs := make([]Pair[int], tr.Len())
	for i := range pairs {
		v := tr.Member(i)
		pairs[i] = Pair[int]{Key: v, Data: v}
	}
	tr.Store(pairs)
	rz, err := NewRealizer(a, tr, func(sites []int) ([]int, []int) {
		owner, _, parent := metric.Voronoi(g, sites)
		return owner, parent
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		v := tr.Member(rng.Intn(tr.Len()))
		_, found, trail := tr.Search(v)
		if !found {
			t.Fatalf("key %d missing", v)
		}
		// Realize the whole descent; each hop must be a graph edge.
		cur := trail[0]
		for i := 1; i < len(trail); i++ {
			phys, err := rz.Walk(cur, trail[i])
			if err != nil {
				t.Fatalf("Walk(%d,%d): %v", cur, trail[i], err)
			}
			if phys[0] != cur || phys[len(phys)-1] != trail[i] {
				t.Fatalf("Walk endpoints wrong: %v", phys)
			}
			for j := 1; j < len(phys); j++ {
				if _, ok := g.EdgeWeight(phys[j-1], phys[j]); !ok {
					t.Fatalf("Walk uses non-edge %d-%d", phys[j-1], phys[j])
				}
			}
			cur = trail[i]
		}
	}
	// Storage must be accounted somewhere.
	total := 0
	for v := 0; v < a.N(); v++ {
		total += rz.StorageBits(v)
	}
	if total == 0 {
		t.Fatal("realizer reports zero storage")
	}
}

func TestConfigValidation(t *testing.T) {
	_, a := geo(t, 50, 12)
	if _, err := New[int](a, 0, 1, Config{Eps: 0, MinNetRadius: 1}); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := New[int](a, 0, 1, Config{Eps: 1.5, MinNetRadius: 1}); err == nil {
		t.Fatal("eps=1.5 accepted")
	}
	if _, err := New[int](a, 0, 1, Config{Eps: 0.5, MinNetRadius: 0}); err == nil {
		t.Fatal("MinNetRadius=0 accepted")
	}
}

func TestMaxDegreeBounded(t *testing.T) {
	// Degree is bounded by the doubling constant to the O(log 1/eps):
	// assert a loose numeric cap on a planar metric to catch blowups.
	_, a := geo(t, 250, 13)
	tr := buildTree(t, a, 0, a.Diameter()/2, 0)
	if d := tr.MaxDegree(); d > 150 {
		t.Fatalf("search tree degree %d", d)
	}
}

package treeroute

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

func portParents(t *testing.T, g *graph.Graph, root int) []int {
	t.Helper()
	spt := metric.Dijkstra(g, root)
	parent := make([]int, g.N())
	copy(parent, spt.Parent)
	parent[root] = -1
	return parent
}

func TestPortSchemeMatchesHeavyScheme(t *testing.T) {
	// Both schemes order children heavy-first, so they must produce
	// IDENTICAL paths for every pair.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 4; trial++ {
		n := 30 + rng.Intn(70)
		g, err := graph.RandomTree(n, 3, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		root := rng.Intn(n)
		parent := portParents(t, g, root)
		heavy, err := New(parent, root)
		if err != nil {
			t.Fatal(err)
		}
		ports, err := NewPortScheme(parent, root)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				p1, err := heavy.Route(u, heavy.Label(v))
				if err != nil {
					t.Fatal(err)
				}
				p2, err := ports.Route(u, ports.Label(v))
				if err != nil {
					t.Fatalf("port route %d->%d: %v", u, v, err)
				}
				if len(p1) != len(p2) {
					t.Fatalf("%d->%d: paths differ (%v vs %v)", u, v, p1, p2)
				}
				for k := range p1 {
					if p1[k] != p2[k] {
						t.Fatalf("%d->%d: paths diverge at %d", u, v, k)
					}
				}
			}
		}
	}
}

func TestPortLabelsLogarithmic(t *testing.T) {
	// The headline property: port labels are O(log n) bits where the
	// basic scheme's labels are O(log^2 n).
	g, err := graph.RandomTree(2000, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	parent := portParents(t, g, 0)
	heavy, err := New(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	ports, err := NewPortScheme(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	logn := math.Log2(2000)
	maxPort, maxHeavy := 0, 0
	for v := 0; v < g.N(); v++ {
		if b := ports.LabelBits(v); b > maxPort {
			maxPort = b
		}
		if b := heavy.LabelBits(v); b > maxHeavy {
			maxHeavy = b
		}
	}
	// Port sum telescopes: In (~log n) + count + 2 log n of gammas.
	if float64(maxPort) > 6*logn {
		t.Fatalf("port labels %d bits > 6 log n = %.0f", maxPort, 6*logn)
	}
	if maxPort >= maxHeavy {
		t.Fatalf("port labels (%d) not smaller than basic labels (%d)", maxPort, maxHeavy)
	}
	t.Logf("n=2000: port labels max %db vs basic %db", maxPort, maxHeavy)
}

func TestPortSchemeOnCaterpillar(t *testing.T) {
	g, err := graph.CaterpillarTree(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	parent := portParents(t, g, 0)
	s, err := NewPortScheme(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			path, err := s.Route(u, s.Label(v))
			if err != nil {
				t.Fatalf("%d->%d: %v", u, v, err)
			}
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("%d->%d: endpoints %v", u, v, path)
			}
		}
	}
}

func TestPortSchemeSubsetAndErrors(t *testing.T) {
	parent := make([]int, 20)
	for i := range parent {
		parent[i] = NotInTree
	}
	parent[5] = -1
	parent[6] = 5
	parent[7] = 5 // two children: 6 is heavy (tie by id), 7 rides port 1
	s, err := NewPortScheme(parent, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 || !s.Contains(6) || s.Contains(0) {
		t.Fatal("membership wrong")
	}
	if _, _, err := s.NextHop(0, s.Label(5)); err != ErrNotInTree {
		t.Fatalf("non-member NextHop: %v", err)
	}
	if _, _, err := s.NextHop(5, PortLabel{In: 99}); err != ErrBadLabel {
		t.Fatalf("foreign label: %v", err)
	}
	// Label targeting the light child (In=2) with a port beyond the
	// child list.
	if _, _, err := s.NextHop(5, PortLabel{In: 2, Ports: []int32{7}}); err == nil {
		t.Fatal("bad port accepted")
	}
	// And with an exhausted port list.
	if _, _, err := s.NextHop(5, PortLabel{In: 2}); err == nil {
		t.Fatal("missing port accepted")
	}
	if _, err := NewPortScheme([]int{0, -1}, 0); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestPortMapBitsReported(t *testing.T) {
	g, err := graph.CaterpillarTree(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	parent := portParents(t, g, 0)
	s, err := NewPortScheme(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.PortMapBits(0, 5) <= 0 {
		t.Fatal("port map bits missing for an internal node")
	}
	if s.TableBits(0) <= 0 {
		t.Fatal("table bits missing")
	}
}

// Route walks from src to the destination labeled dst, one NextHop at
// a time. Routing steps NextHop itself; Route serves these tests.
func (s *PortScheme) Route(src int, dst PortLabel) ([]int, error) {
	path := []int{src}
	cur := src
	for steps := 0; ; steps++ {
		next, arrived, err := s.NextHop(cur, dst)
		if err != nil {
			return nil, err
		}
		if arrived {
			return path, nil
		}
		if steps > s.size {
			return nil, errors.New("treeroute: routing loop")
		}
		cur = next
		path = append(path, cur)
	}
}

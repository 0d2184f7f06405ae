package nameind

// Tests for the sharp combinatorial claims behind Lemma 3.8 (the
// scale-free storage bound), checked against the actual compiled
// structures rather than re-proved: Claim 3.7 (zooming balls that keep
// their own search tree only exist at density-jump levels), Claim 3.9
// (at most four H(u,i) delegations per packing level), and the
// per-level disjointness that caps packing-tree residency.

import (
	"testing"

	"compactrouting/internal/labeled"
)

func buildClaimsFixture(t *testing.T, n int, seed int64) (*ScaleFree, fixture) {
	t.Helper()
	f := geoFixture(t, n, seed)
	s := newScaleFreeScheme(t, f, RandomNaming(f.g.N(), seed), 0.25)
	return s, f
}

func TestClaim37OwnTreesOnlyAtDensityJumps(t *testing.T) {
	// Claim 3.7: if the zooming ball B_u(2^i/eps) keeps its own search
	// tree (is in the family A) and contains v, then i ∈ R(v) where
	// R(v) = { i : |B_v(2^{i+2}/eps)| >= 2 |B_v(2^{i-2})| }.
	s, f := buildClaimsFixture(t, 120, 21)
	eps := 0.25
	h := s.h
	for i := range s.ownTrees {
		for _, tree := range s.ownTrees[i] {
			if tree == nil {
				continue
			}
			for p := 0; p < tree.Len(); p++ {
				v := tree.Member(p)
				outer := f.a.BallSize(v, h.Radius(i)*4/eps) // 2^{i+2}/eps
				if outer == f.g.N() {
					// Top-of-hierarchy boundary: the outer ball is the
					// whole graph, where the claim's counting stops
					// (only O(log 1/eps) such levels exist and they are
					// absorbed in the storage bound's constants).
					continue
				}
				var innerSize int
				if i >= 2 {
					innerSize = f.a.BallSize(v, h.Radius(i-2))
				} else {
					innerSize = f.a.BallSize(v, h.Radius(i)/4)
				}
				if outer < 2*innerSize {
					t.Fatalf("own tree (i=%d, y=%d) contains %d but |B_v(2^{i+2}/eps)|=%d < 2*%d",
						i, tree.Center, v, outer, innerSize)
				}
			}
		}
	}
}

func TestClaim39AtMostFourDelegationsPerLevel(t *testing.T) {
	// Claim 3.9: for any node u and any packing level j, the number of
	// DISTINCT balls H(u, i) ∈ B_j over the levels i where u delegates
	// is at most 4. (Exact on metrics without distance ties; geometric
	// graphs qualify.)
	s, _ := buildClaimsFixture(t, 150, 22)
	h := s.h
	// Collect per net point u the delegations over all its levels.
	perNode := map[int]map[int]map[int]bool{} // u -> j -> ball idx set
	for i := range s.hLinks {
		for k, y := range h.Levels[i] {
			if s.ownTrees[i][k] != nil {
				continue // not delegated
			}
			hl := s.hLinks[i][k]
			if perNode[y] == nil {
				perNode[y] = map[int]map[int]bool{}
			}
			if perNode[y][hl.j] == nil {
				perNode[y][hl.j] = map[int]bool{}
			}
			perNode[y][hl.j][hl.idx] = true
		}
	}
	for u, byJ := range perNode {
		for j, balls := range byJ {
			if len(balls) > 4 {
				t.Fatalf("node %d delegates to %d distinct balls at level j=%d (Claim 3.9 allows 4)",
					u, len(balls), j)
			}
		}
	}
}

func TestPackingTreeResidencyPerLevel(t *testing.T) {
	// Search trees of the packing family are built on disjoint balls,
	// so a node hosts at most ONE such tree per level j — the first
	// half of Lemma 3.5's storage argument, exactly.
	s, f := buildClaimsFixture(t, 120, 23)
	for j := range s.ballTrees {
		seen := make(map[int]int)
		for k, tree := range s.ballTrees[j] {
			for p := 0; p < tree.Len(); p++ {
				v := tree.Member(p)
				if prev, dup := seen[v]; dup {
					t.Fatalf("node %d hosts trees %d and %d at level j=%d", v, prev, k, j)
				}
				seen[v] = k
			}
		}
	}
	_ = f
}

func TestOwnTreeResidencyBounded(t *testing.T) {
	// The second half of Lemma 3.5: per level i, the number of A-family
	// trees containing a fixed node v is at most |B_v(2^i/eps) ∩ Y_i|'s
	// packing bound (Lemma 2.2). Assert the sharp per-level statement:
	// every A-tree at level i containing v has its center within
	// 2^i/eps of v, and centers are pairwise >= 2^i apart — so the
	// count is a ball-packing number, not O(n).
	s, f := buildClaimsFixture(t, 120, 24)
	eps := 0.25
	h := s.h
	for i := range s.ownTrees {
		// Residency per node at this level.
		trees := map[int][]int{} // v -> centers
		for _, tree := range s.ownTrees[i] {
			if tree == nil {
				continue
			}
			for p := 0; p < tree.Len(); p++ {
				v := tree.Member(p)
				trees[v] = append(trees[v], tree.Center)
			}
		}
		for v, centers := range trees {
			for _, c := range centers {
				if f.a.Dist(v, c) > h.Radius(i)/eps+1e-9 {
					t.Fatalf("level %d: tree center %d too far from member %d", i, c, v)
				}
			}
			for x := 0; x < len(centers); x++ {
				for y := x + 1; y < len(centers); y++ {
					if f.a.Dist(centers[x], centers[y]) < h.Radius(i)-1e-9 {
						t.Fatalf("level %d: centers %d,%d closer than the net radius",
							i, centers[x], centers[y])
					}
				}
			}
		}
	}
}

func TestDelegationCoversZoomingBall(t *testing.T) {
	// The correctness side of Algorithm 4: whenever (i, u) delegates to
	// H(u, i) = B with center c at level j, the indexed set
	// B_c(r_c(j+2)) must contain every node of B_u(2^i/eps) — otherwise
	// a search could miss a name it was responsible for.
	s, f := buildClaimsFixture(t, 120, 25)
	eps := 0.25
	h := s.h
	for i := range s.hLinks {
		for k, y := range h.Levels[i] {
			if s.ownTrees[i][k] != nil {
				continue
			}
			hl := s.hLinks[i][k]
			c := s.pk.Balls[hl.j][hl.idx].Center
			indexRadius := f.a.RadiusOfSize(c, s.pk.Size(hl.j+2))
			for _, v := range f.a.Ball(y, h.Radius(i)/eps) {
				if f.a.Dist(c, v) > indexRadius+1e-9 {
					t.Fatalf("delegation (i=%d, u=%d) -> (j=%d, c=%d) misses node %d",
						i, y, hl.j, c, v)
				}
			}
		}
	}
}

func TestScaleFreeStorageDecomposition(t *testing.T) {
	// TableBits must dominate the underlying labeled scheme's bits (the
	// name-independent layer only adds storage).
	f := geoFixture(t, 90, 26)
	under, err := labeled.NewScaleFree(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScaleFree(f.g, f.a, RandomNaming(f.g.N(), 4), under, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < f.g.N(); v++ {
		if s.TableBits(v) < under.TableBits(v) {
			t.Fatalf("node %d: nameind bits %d below underlying %d",
				v, s.TableBits(v), under.TableBits(v))
		}
	}
}

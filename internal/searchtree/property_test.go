package searchtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// TestQuickStoreRetrieveArbitraryKeySets: for random graphs, random
// ball centers/radii and random sparse key sets, every stored pair is
// retrievable and every absent key reports not-found — over both
// uncapped (Def. 3.2) and capped (Def. 4.2) trees.
func TestQuickStoreRetrieveArbitraryKeySets(t *testing.T) {
	f := func(seed int64, centerRaw, radiusPct uint8, capLevels uint8) bool {
		g, _, err := graph.RandomGeometric(50+int(uint16(seed)%50), 0.3, seed)
		if err != nil {
			return true // skip degenerate generator outcomes
		}
		a := metric.NewAPSP(g)
		center := int(centerRaw) % g.N()
		radius := a.Diameter() * float64(radiusPct%100+1) / 100
		cfg := Config{Eps: 0.4, MinNetRadius: a.MinPairDistance()}
		if capLevels%2 == 0 {
			cfg.MaxLevels = 1 + int(capLevels%8)
		}
		tr, err := New[int](a, center, radius, cfg)
		if err != nil {
			return false
		}
		// Sparse random keys: one pair for a random subset of members.
		rng := rand.New(rand.NewSource(seed ^ 0x5ee))
		keys := map[int]int{} // key -> data
		var pairs []Pair[int]
		for p := 0; p < tr.Len(); p++ {
			v := tr.Member(p)
			if rng.Intn(3) == 0 {
				key := rng.Intn(1 << 20)
				if _, dup := keys[key]; dup {
					continue
				}
				keys[key] = v
				pairs = append(pairs, Pair[int]{Key: key, Data: v})
			}
		}
		tr.Store(pairs)
		for key, want := range keys {
			got, found, trail := tr.Search(key)
			if !found || got != want {
				return false
			}
			if trail[0] != tr.Center {
				return false
			}
		}
		for probe := 0; probe < 20; probe++ {
			key := rng.Intn(1 << 20)
			if _, present := keys[key]; present {
				continue
			}
			if _, found, _ := tr.Search(key); found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQuotaBalance: Algorithm 1 hands every node either
// floor(k/m) or ceil(k/m) pairs.
func TestQuickQuotaBalance(t *testing.T) {
	f := func(seed int64, kRaw uint16) bool {
		g, _, err := graph.RandomGeometric(60, 0.3, seed)
		if err != nil {
			return true
		}
		a := metric.NewAPSP(g)
		tr, err := New[int](a, 0, a.Diameter(), Config{Eps: 0.5, MinNetRadius: a.MinPairDistance()})
		if err != nil {
			return false
		}
		m := tr.Len()
		k := int(kRaw) % (4 * m)
		pairs := make([]Pair[int], k)
		for i := range pairs {
			pairs[i] = Pair[int]{Key: i, Data: i}
		}
		tr.Store(pairs)
		lo, hi := k/m, (k+m-1)/m
		for p := 0; p < m; p++ {
			if got := len(tr.Pairs(p)); got < lo || got > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReplacesContents(t *testing.T) {
	g, _, err := graph.RandomGeometric(60, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	tr, err := New[int](a, 0, a.Diameter(), Config{Eps: 0.5, MinNetRadius: a.MinPairDistance()})
	if err != nil {
		t.Fatal(err)
	}
	tr.Store([]Pair[int]{{Key: 1, Data: 10}, {Key: 2, Data: 20}})
	tr.Store([]Pair[int]{{Key: 3, Data: 30}})
	if _, found, _ := tr.Search(1); found {
		t.Fatal("stale pair survived re-Store")
	}
	if d, found, _ := tr.Search(3); !found || d != 30 {
		t.Fatal("new pair missing after re-Store")
	}
}

package searchtree

import (
	"fmt"
	"slices"
	"sort"

	"compactrouting/internal/metric"
)

// FrozenNew is New as it was before the level loop became ball-local:
// the greedy net test scans every net point placed so far, and every
// parent is a Nearest over the whole level above. It is kept as the
// reference the current New is compared against tree by tree
// (TestNewMatchesFrozenLoop), and exported only to this package's
// tests.
func FrozenNew[D any](a metric.Distancer, center int, radius float64, cfg Config) (*Tree[D], error) {
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("searchtree: eps %v out of (0,1)", cfg.Eps)
	}
	if cfg.MinNetRadius <= 0 {
		return nil, fmt.Errorf("searchtree: MinNetRadius %v must be positive", cfg.MinNetRadius)
	}
	sc := new(scratch)
	sc.ball = a.AppendBall(sc.ball[:0], center, radius)
	ball := sc.ball
	sort.Ints(ball)
	m := len(ball)
	order, up, w := make([]int, 0, m), make([]int, 0, m), make([]float64, 0, m)
	order, up, w = append(order, center), append(up, -1), append(w, 0)
	levelOff := []int{0, 1}
	rest := make([]int, 0, m)
	for _, v := range ball {
		if v != center {
			rest = append(rest, v)
		}
	}
	t := &Tree[D]{Center: center, Radius: radius, Eps: cfg.Eps}
	var tailSite, tailLen []int
	rho := cfg.Eps * radius / 2
	for level := 1; len(rest) > 0; level++ {
		start := len(order)
		prev := order[levelOff[level-1]:start]
		if cfg.MaxLevels > 0 && level > cfg.MaxLevels {
			t.TailEdgeW = 2 * cfg.Eps * radius / float64(a.N())
			keys := make([]int64, 0, len(rest))
			for _, v := range rest {
				s, _ := a.Nearest(v, prev)
				keys = append(keys, int64(sort.SearchInts(prev, s))<<32|int64(v))
			}
			slices.Sort(keys)
			for k, key := range keys {
				parent := order[len(order)-1]
				if k == 0 || keys[k-1]>>32 != key>>32 {
					parent = prev[key>>32]
					tailSite, tailLen = append(tailSite, parent), append(tailLen, 0)
				}
				tailLen[len(tailLen)-1]++
				order, up, w = append(order, int(key&(1<<32-1))), append(up, parent), append(w, t.TailEdgeW)
			}
			break
		}
		if rho <= cfg.MinNetRadius {
			order = append(order, rest...)
			rest = rest[:0]
		} else {
			k := 0
			for _, v := range rest {
				ok := true
				for _, y := range order[start:] {
					if a.Dist(v, y) < rho {
						ok = false
						break
					}
				}
				if ok {
					order = append(order, v)
				} else {
					rest[k] = v
					k++
				}
			}
			rest = rest[:k]
		}
		for _, v := range order[start:] {
			p, d := a.Nearest(v, prev)
			up, w = append(up, p), append(w, d)
		}
		levelOff = append(levelOff, len(order))
		rho /= 2
	}
	sc.order, sc.up, sc.w = order, up, w
	t.assemble(sc, a.N(), levelOff, tailSite, tailLen)
	return t, nil
}

// frozenWalk is the PathRealizer.Walk the sequential Algorithm 5 loop
// used to cross a virtual edge between adjacent tree nodes in one call:
// the tail scheme of from (else of to), or the canonical shortest path.
// It is kept for TestRealizerWalksAndStorage; routing crosses virtual
// edges hop by hop with NextHopToward.
func frozenWalk(r *PathRealizer, from, to int) ([]int, error) {
	sch := r.tailSchemeOf(from)
	if sch == nil {
		sch = r.tailSchemeOf(to)
	}
	if sch != nil {
		return sch.Route(from, sch.Label(to))
	}
	return pathBetween(r.a, from, to), nil
}

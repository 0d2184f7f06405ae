package metric

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"compactrouting/internal/racetest"
)

// refSortByDist is the comparison sort sortByDist replaced: nodes by
// (dist[v], v) with float compares. The radix sort must agree with it
// on every input without NaNs.
func refSortByDist(nodes []int32, dist []float64) {
	slices.SortFunc(nodes, func(a, b int32) int {
		//determinlint:allow floateq reference comparator: exact (distance, id) order
		if da, db := dist[a], dist[b]; da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// TestSortByDistMatchesComparator holds the radix sort to the
// comparator on rows built to stress the key mapping: heavy ties
// (including +0 against -0), subnormals and runs of values one ulp
// apart, +Inf and exponents spread over the whole float range, and
// negative values. Each row is sorted from id order, from a shuffled
// order and as a shuffled subset of the ids (the kernel's fallback sorts
// a settled subset in settle order), at lengths 1, 2, 3, small and
// 2049, with one scratch reused throughout.
func TestSortByDistMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	gens := map[string]func() float64{
		"ties": func() float64 { return float64(rng.Intn(4)) },
		"zeros": func() float64 {
			return []float64{0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64}[rng.Intn(4)]
		},
		"subnormal": func() float64 {
			return math.Float64frombits(uint64(rng.Intn(64)))
		},
		"ulp-apart": func() float64 {
			d := 1.5
			for k := rng.Intn(40); k > 0; k-- {
				d = math.Nextafter(d, 2)
			}
			return d
		},
		"inf-and-exponents": func() float64 {
			if rng.Intn(8) == 0 {
				return math.Inf(1)
			}
			return math.Ldexp(1+rng.Float64(), rng.Intn(2098)-1074)
		},
		"uniform": func() float64 { return rng.Float64() * 10 },
		"negative": func() float64 {
			return []float64{-1, -0.5, math.Copysign(0, -1), 0, 0.5, math.Inf(-1), math.Inf(1), -math.SmallestNonzeroFloat64}[rng.Intn(8)]
		},
	}
	var ds distSorter
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 17, 2049} {
			for trial := 0; trial < 3; trial++ {
				dist := make([]float64, n)
				for i := range dist {
					dist[i] = gen()
				}
				ids := make([]int32, n)
				for i := range ids {
					ids[i] = int32(i)
				}
				shuffled := slices.Clone(ids)
				rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				inputs := map[string][]int32{
					"id-order": ids,
					"shuffled": shuffled,
					"subset":   shuffled[:(n+1)/2],
				}
				for order, in := range inputs {
					got, want := slices.Clone(in), slices.Clone(in)
					ds.sortByDist(got, dist)
					refSortByDist(want, dist)
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d trial %d, %s: radix sort differs from the comparator\ngot  %v\nwant %v",
							name, n, trial, order, got, want)
					}
				}
			}
		}
	}
}

// TestRestoreAPSPMatchesBuildAtScale checks RestoreAPSP against NewAPSP
// at the size the restore benchmark measures: every order row of the
// restored oracle equals the kernel's settle-order row. Under the race
// detector, whose cost would make the n=2048 build dominate the gate,
// it runs at n=512.
func TestRestoreAPSPMatchesBuildAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=2048 APSP build skipped in -short mode")
	}
	n := 2048
	if racetest.Enabled {
		n = 512
	}
	built := NewAPSP(benchGraph(t, "geometric", n))
	dist, nextHop := built.Matrices()
	restored, err := RestoreAPSP(built.N(), dist, nextHop)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if got, want := restored.order[u*n:(u+1)*n], built.order[u*n:(u+1)*n]; !slices.Equal(got, want) {
			t.Fatalf("restored order row %d differs from the built one", u)
		}
	}
}

package tz

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// frozenRouteToLabel is the loop RouteToLabel ran over core.Trace before
// it became one walk.Route call over Step, kept as the reference it is
// compared against: the full label plus a 2-bit tag charged up front,
// cluster next hops, then the home landmark and its tree, and a budget
// of 4n steps.
func frozenRouteToLabel(s *Scheme, src, label int) (*core.Route, error) {
	n := s.g.N()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("tz: source %d out of range", src)
	}
	if label < 0 || label >= n {
		return nil, fmt.Errorf("tz: destination %d out of range", label)
	}
	dst := label
	tr := core.NewTrace(s.g, src)
	tr.Header(s.LabelBitsOf(dst) + 2)
	homeIdx := int(s.home[dst])
	homeTree := s.trees[homeIdx]
	inTreePhase := false
	for step := 0; ; step++ {
		if step > 4*n {
			return nil, fmt.Errorf("tz: no progress routing to %d", dst)
		}
		u := tr.At()
		if u == dst {
			return tr.Finish(dst)
		}
		if !inTreePhase {
			if next, ok := s.cluster[u][int32(dst)]; ok {
				if err := tr.Hop(int(next)); err != nil {
					return nil, err
				}
				continue
			}
			if u != s.landmarks[homeIdx] {
				if err := tr.Hop(int(s.toLandmark[u][homeIdx])); err != nil {
					return nil, err
				}
				continue
			}
			inTreePhase = true
		}
		next, arrived, err := homeTree.NextHop(u, homeTree.Label(dst))
		if err != nil {
			return nil, err
		}
		if arrived {
			return tr.Finish(dst)
		}
		if err := tr.Hop(next); err != nil {
			return nil, err
		}
	}
}

// TestRouteToLabelMatchesFrozenLoop pins RouteToLabel to the loop it
// replaced, field for field — Dst, Path, Cost bits, MaxHeaderBits and
// Fallback — on every pair, self-routes included, of three graph
// families at two landmark densities.
func TestRouteToLabelMatchesFrozenLoop(t *testing.T) {
	geo, _, err := graph.RandomGeometric(60, 0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.Ring(40)
	if err != nil {
		t.Fatal(err)
	}
	power, err := graph.PowerLaw(60, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"geometric", geo}, {"ring", ring}, {"power-law", power}} {
		for _, factor := range []float64{0.5, 1} {
			s, err := New(gc.g, metric.NewAPSP(gc.g), factor, 7)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < gc.g.N(); src++ {
				for dst := 0; dst < gc.g.N(); dst++ {
					want, err := frozenRouteToLabel(s, src, dst)
					if err != nil {
						t.Fatalf("%s/%v (%d,%d): frozen loop: %v", gc.name, factor, src, dst, err)
					}
					got, err := s.RouteToLabel(src, dst)
					if err != nil {
						t.Fatalf("%s/%v (%d,%d): %v", gc.name, factor, src, dst, err)
					}
					if got.Src != want.Src || got.Dst != want.Dst || !slices.Equal(got.Path, want.Path) ||
						math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
						got.MaxHeaderBits != want.MaxHeaderBits || got.Fallback != want.Fallback {
						t.Fatalf("%s/%v (%d,%d): route %+v, frozen loop %+v", gc.name, factor, src, dst, got, want)
					}
				}
			}
		}
	}
}

package main

import (
	"bytes"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/snapshot"
)

// schemeBytes compiles the name-independent scheme (and the labeled
// scheme under it) on a and returns both tables' snapshot encodings.
func schemeBytes(t *testing.T, g *graph.Graph, a metric.Distancer) [2][]byte {
	t.Helper()
	under, err := labeled.NewSimple(g, a, eps)
	if err != nil {
		t.Fatal(err)
	}
	ni, err := nameind.NewSimple(g, a, nameind.RandomNaming(g.N(), 9), under, eps)
	if err != nil {
		t.Fatal(err)
	}
	var out [2][]byte
	for i, impl := range []any{under, ni} {
		name := []string{"simple-labeled", "name-independent"}[i]
		w := &bits.Writer{}
		if err := snapshot.EncodeScheme(w, name, impl); err != nil {
			t.Fatal(err)
		}
		out[i] = append([]byte(nil), w.Bytes()...)
	}
	return out
}

// TestCountingDistancerTablesBitIdentical pins that building through the
// decorator changes nothing: the tables encode to the same bytes as an
// undecorated build, on both backends and both graph families.
func TestCountingDistancerTablesBitIdentical(t *testing.T) {
	for _, kind := range []string{"geometric", "power-law"} {
		g, err := generate(kind, 160, 4)
		if err != nil {
			t.Fatal(err)
		}
		backends := map[string]func() metric.Distancer{
			"dense": func() metric.Distancer { return metric.NewAPSP(g) },
			"lazy":  func() metric.Distancer { return metric.NewLazyOracle(g) },
		}
		for name, mk := range backends {
			bare := schemeBytes(t, g, mk())
			dec := newCountingDistancer(mk())
			wrapped := schemeBytes(t, g, dec)
			for i := range bare {
				if !bytes.Equal(bare[i], wrapped[i]) {
					t.Fatalf("%s/%s: scheme %d tables differ through the decorator", kind, name, i)
				}
			}
			if dec.Calls() == 0 || dec.Seconds() < 0 {
				t.Fatalf("%s/%s: decorator saw %d calls, %v s", kind, name, dec.Calls(), dec.Seconds())
			}
			calls := dec.Calls()
			dec.stop()
			dec.Dist(0, 1)
			if dec.Calls() != calls {
				t.Fatalf("%s/%s: stopped decorator still counts", kind, name)
			}
		}
	}
}

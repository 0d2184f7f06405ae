package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"compactrouting/internal/schemes"
)

// TestCheckStretchBoundViolationFails is the regression test for the
// bug where routesim exited zero on stretch-bound violations for
// labeled schemes: the unified check must reject any stretch above the
// bound, whatever the scheme.
func TestCheckStretchBoundViolationFails(t *testing.T) {
	err := checkStretchBound("simple-labeled", 1, []float64{1.0, 1.2, 3.7}, 3.0)
	if err == nil {
		t.Fatal("stretch 3.7 against bound 3.0 must fail the run")
	}
	if !strings.Contains(err.Error(), "STRETCH BOUND VIOLATED") {
		t.Fatalf("violation error should be loud, got: %v", err)
	}
	if !strings.Contains(err.Error(), "3.700") {
		t.Fatalf("violation error should report the worst stretch, got: %v", err)
	}
}

func TestCheckStretchBoundWithinBoundPasses(t *testing.T) {
	if err := checkStretchBound("full-table", 1, []float64{1.0, 1.0}, 1); err != nil {
		t.Fatalf("optimal routes must pass the bound-1 check: %v", err)
	}
	// Accumulated float error just past the bound stays within slack.
	if err := checkStretchBound("full-table", 1, []float64{1 + 1e-12}, 1); err != nil {
		t.Fatalf("float slack must absorb 1e-12: %v", err)
	}
	// An infinite bound (single-tree) passes vacuously.
	if err := checkStretchBound("single-tree", 1, []float64{250}, math.Inf(1)); err != nil {
		t.Fatalf("unbounded scheme must never violate: %v", err)
	}
}

// TestRunEnforcesBoundEndToEnd drives the full pipeline on a small
// network for every scheme and both distance backends: each run must
// deliver all packets, pass the sequential cross-check, and satisfy
// its own analytical stretch bound. It runs at ε=0.25 and again, under
// eps=0.5/, at routesim's default ε=0.5, which every scheme with a
// smaller cap clamps to that cap.
func TestRunEnforcesBoundEndToEnd(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5} {
		prefix := ""
		if eps != 0.25 {
			prefix = fmt.Sprintf("eps=%v/", eps)
		}
		for _, scheme := range schemes.Names() {
			for _, backend := range []string{"dense", "lazy"} {
				scheme, backend, eps := scheme, backend, eps
				t.Run(prefix+scheme+"/"+backend, func(t *testing.T) {
					t.Parallel()
					if err := run(64, 200, scheme, 3, eps, backend); err != nil {
						t.Fatalf("run(%s, %s, eps=%v): %v", scheme, backend, eps, err)
					}
				})
			}
		}
	}
}

// TestRunRejectsUnknownScheme: a bad -scheme fails before the network
// is built.
func TestRunRejectsUnknownScheme(t *testing.T) {
	if err := run(64, 10, "no-such-scheme", 1, 0.5, "dense"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("unknown scheme: %v", err)
	}
}

package nameind

import (
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/walk"
)

// driveSteps runs the step function sequentially and returns the walk.
func driveSteps(t *testing.T, s *Simple, src, name int) []int {
	t.Helper()
	h, err := s.PrepareHeader(name)
	if err != nil {
		t.Fatal(err)
	}
	path := []int{src}
	w := src
	for steps := 0; ; steps++ {
		if steps > 64*s.g.N()*(s.h.TopLevel()+2) {
			t.Fatalf("step driver looping for %d -> name %d", src, name)
		}
		next, nh, arrived, err := s.Step(w, h)
		if err != nil {
			t.Fatalf("Step at %d: %v", w, err)
		}
		if arrived {
			return path
		}
		w = next
		path = append(path, w)
		h = nh
	}
}

// TestStepMatchesRouteToName drives Step by hand and compares the walk
// with the frozen virtual-edge loop RouteToName ran before it became a
// walk of Step itself.
func TestStepMatchesRouteToName(t *testing.T) {
	f := geoFixture(t, 90, 41)
	nm := RandomNaming(f.g.N(), 17)
	s := newSimpleScheme(t, f, nm, 0.25)
	ref := frozenSimple(s)
	for _, p := range core.SamplePairs(f.g.N(), 250, 3) {
		name := nm.NameOf(p[1])
		seq, err := ref.route(p[0], name, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := driveSteps(t, s, p[0], name)
		if len(got) != len(seq.Path) {
			t.Fatalf("%d -> name %d: step path len %d, sequential %d",
				p[0], name, len(got), len(seq.Path))
		}
		for k := range got {
			if got[k] != seq.Path[k] {
				t.Fatalf("%d -> name %d: paths diverge at hop %d", p[0], name, k)
			}
		}
	}
}

func TestStepSelfDelivery(t *testing.T) {
	f := geoFixture(t, 50, 42)
	nm := RandomNaming(f.g.N(), 18)
	s := newSimpleScheme(t, f, nm, 0.25)
	for v := 0; v < f.g.N(); v += 7 {
		path := driveSteps(t, s, v, nm.NameOf(v))
		if len(path) != 1 {
			t.Fatalf("self delivery of %d walked %v", v, path)
		}
	}
}

func TestStepUnknownName(t *testing.T) {
	f := geoFixture(t, 40, 43)
	nm := RandomNaming(f.g.N(), 19)
	s := newSimpleScheme(t, f, nm, 0.25)
	if _, err := s.PrepareHeader(1 << 30); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// driveSFSteps runs the scale-free step function sequentially.
func driveSFSteps(t *testing.T, s *ScaleFree, src, name int) []int {
	t.Helper()
	h, err := s.PrepareHeader(name)
	if err != nil {
		t.Fatal(err)
	}
	path := []int{src}
	w := src
	for steps := 0; ; steps++ {
		if steps > 256*s.g.N()*(s.h.TopLevel()+2) {
			t.Fatalf("sf step driver looping for %d -> name %d", src, name)
		}
		next, nh, arrived, err := s.Step(w, h)
		if err != nil {
			t.Fatalf("Step at %d: %v", w, err)
		}
		if arrived {
			return path
		}
		w = next
		path = append(path, w)
		h = nh
	}
}

// TestSFStepMatchesRouteToName is TestStepMatchesRouteToName for the
// Theorem 1.1 scheme.
func TestSFStepMatchesRouteToName(t *testing.T) {
	f := geoFixture(t, 80, 44)
	nm := RandomNaming(f.g.N(), 20)
	s := newScaleFreeScheme(t, f, nm, 0.25)
	ref := frozenScaleFree(s)
	for _, p := range core.SamplePairs(f.g.N(), 200, 4) {
		name := nm.NameOf(p[1])
		seq, err := ref.route(p[0], name, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := driveSFSteps(t, s, p[0], name)
		if len(got) != len(seq.Path) {
			t.Fatalf("%d -> name %d: step path len %d, sequential %d",
				p[0], name, len(got), len(seq.Path))
		}
		for k := range got {
			if got[k] != seq.Path[k] {
				t.Fatalf("%d -> name %d: paths diverge at hop %d (%d vs %d)",
					p[0], name, k, got[k], seq.Path[k])
			}
		}
	}
}

func TestSFStepOnExponentialStar(t *testing.T) {
	g, err := graph.ExponentialStar(50, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fixture{g: g, a: metric.NewAPSP(g)}
	nm := RandomNaming(f.g.N(), 21)
	s := newScaleFreeScheme(t, f, nm, 0.25)
	for _, p := range core.SamplePairs(f.g.N(), 150, 5) {
		got := driveSFSteps(t, s, p[0], nm.NameOf(p[1]))
		if got[len(got)-1] != p[1] {
			t.Fatalf("delivery ended at %d, want %d", got[len(got)-1], p[1])
		}
	}
}

func TestStepOnExponentialPathStationaryZoom(t *testing.T) {
	// Exponential paths have deep hierarchies (L ~ 2n) with long
	// stationary zoom runs where many levels resolve without emitting
	// a hop: the stress case for the step function's internal
	// transition budget. The walks are compared with the frozen loop.
	g, err := graph.ExponentialPath(48, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fixture{g: g, a: metric.NewAPSP(g)}
	nm := RandomNaming(f.g.N(), 22)
	s := newSimpleScheme(t, f, nm, 0.25)
	sf := newScaleFreeScheme(t, f, nm, 0.25)
	ref, sfRef := frozenSimple(s), frozenScaleFree(sf)
	for _, p := range core.SamplePairs(f.g.N(), 150, 6) {
		name := nm.NameOf(p[1])
		seq, err := ref.route(p[0], name, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := driveSteps(t, s, p[0], name)
		if len(got) != len(seq.Path) {
			t.Fatalf("simple: %d -> name %d: step path len %d, sequential %d",
				p[0], name, len(got), len(seq.Path))
		}
		sfseq, err := sfRef.route(p[0], name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sfgot := driveSFSteps(t, sf, p[0], name)
		if len(sfgot) != len(sfseq.Path) {
			t.Fatalf("scale-free: %d -> name %d: step path len %d, sequential %d",
				p[0], name, len(sfgot), len(sfseq.Path))
		}
	}
}

// TestStepWalkDeliversWideNames routes to a name that differs from
// another node's name only above bit 31: node 7 is named 3+2^32 and
// node 3 is named 3. A header that truncates names to 32 bits walks to
// node 3 without an error.
func TestStepWalkDeliversWideNames(t *testing.T) {
	f := geoFixture(t, 40, 45)
	names := make([]int, f.g.N())
	for v := range names {
		names[v] = v
	}
	names[7] = 3 + 1<<32
	nm, err := NewNaming(names)
	if err != nil {
		t.Fatal(err)
	}
	s := newSimpleScheme(t, f, nm, 0.25)
	sf := newScaleFreeScheme(t, f, nm, 0.25)
	for _, src := range []int{0, 3, 7, 20} {
		for _, dst := range []int{3, 7} {
			if lr := walk.RouteLite[NIHeader](f.g, s, src, nm.NameOf(dst), SimpleHopsPerNode*f.g.N()); lr.Err != nil || lr.Dst != dst {
				t.Fatalf("simple %d -> name %d: arrived at %d (err %v), want %d", src, nm.NameOf(dst), lr.Dst, lr.Err, dst)
			}
			if lr := walk.RouteLite[SFNIHeader](f.g, sf, src, nm.NameOf(dst), ScaleFreeHopsPerNode*f.g.N()); lr.Err != nil || lr.Dst != dst {
				t.Fatalf("scale-free %d -> name %d: arrived at %d (err %v), want %d", src, nm.NameOf(dst), lr.Dst, lr.Err, dst)
			}
		}
	}
}

package schemes

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/trace"
)

// renamedFullTable is a scheme the registry does not hold: the full
// table under another name. It is one spec literal, which is all a new
// scheme needs to run through everything the registered ones do.
var renamedFullTable = &spec[*baseline.FullTable, baseline.Destination]{
	name: "renamed-full-table", kind: Baseline,
	build: func(g *graph.Graph, a metric.Distancer, _ float64, _ int64) (*baseline.FullTable, error) {
		return baseline.NewFullTable(g, a), nil
	},
	encode: func(w *bits.Writer, s *baseline.FullTable) error { s.EncodeSnapshot(w); return nil },
	decode: func(_ *bits.Reader, g *graph.Graph, a metric.Distancer) (*baseline.FullTable, error) {
		return baseline.RestoreFullTable(g, a), nil
	},
	addr:  (*baseline.FullTable).LabelOf,
	route: (*baseline.FullTable).RouteToLabel,
}

// TestRegistryConformance holds every entry, and the test-local one, to
// the registry's contract on both distance backends: the header type
// classifies its hops for the trace layer, the snapshot blob
// round-trips byte for byte, the restored walker walks like the built
// one, every walk matches the scheme's sequential evaluator, and no
// route exceeds the entry's stretch bound.
func TestRegistryConformance(t *testing.T) {
	g, _, err := graph.RandomGeometric(64, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 60, 9)
	for _, e := range append(All(), renamedFullTable) {
		// A header that does not implement trace.Phased would silently
		// trace as PhaseDirect.
		if !e.(interface{ headerPhased() bool }).headerPhased() {
			t.Errorf("%s: header type does not implement trace.Phased", e.Name())
		}
		for _, backend := range []string{"dense", "lazy"} {
			t.Run(e.Name()+"/"+backend, func(t *testing.T) {
				a, err := metric.NewBackend(g, backend)
				if err != nil {
					t.Fatal(err)
				}
				built, err := e.Build(g, a, 0.25, 7)
				if err != nil {
					t.Fatal(err)
				}
				blob := encode(t, e, built.Impl)
				restored, err := e.Restore(bits.NewReader(blob.Bytes(), blob.Len()), g, a)
				if err != nil {
					t.Fatal(err)
				}
				if again := encode(t, e, restored.Impl); again.Len() != blob.Len() || !bytes.Equal(again.Bytes(), blob.Bytes()) {
					t.Fatalf("re-encode: %d bits, first encode %d", again.Len(), blob.Len())
				}
				if restored.LabelBits != built.LabelBits || restored.StretchBound != built.StretchBound {
					t.Fatalf("restored accounting (%d, %v) != built (%d, %v)",
						restored.LabelBits, restored.StretchBound, built.LabelBits, built.StretchBound)
				}
				checkLabelBits(t, built, g.N())
				checkWalks(t, built, restored, a, pairs)
			})
		}
	}
}

func encode(t *testing.T, e Entry, impl any) *bits.Writer {
	t.Helper()
	w := &bits.Writer{}
	if err := e.EncodeSnapshot(w, impl); err != nil {
		t.Fatal(err)
	}
	return w
}

// checkLabelBits pins LabelBits to each kind's address space: node ids
// and labels take ceil(log n) bits, names what the naming's largest
// name needs.
func checkLabelBits(t *testing.T, inst *Instance, n int) {
	t.Helper()
	want := bits.UintBits(n)
	if nm, ok := inst.Impl.(interface{ Naming() *nameind.Naming }); ok {
		want = bits.UintBits(nm.Naming().MaxName() + 1)
	}
	if inst.LabelBits != want {
		t.Fatalf("LabelBits %d, want %d", inst.LabelBits, want)
	}
}

// checkWalks routes every pair through every walk the Walker offers and
// through the scheme's sequential evaluator: all must agree hop for hop.
func checkWalks(t *testing.T, built, restored *Instance, a metric.Distancer, pairs [][2]int) {
	t.Helper()
	concurrent := built.Run(pairs, nil)
	noFaults := faultsim.NewInjector(faultsim.FaultPlan{})
	for i, p := range pairs {
		src, dst := p[0], p[1]
		lite := built.Lite(src, dst)
		if got := restored.Lite(src, dst); got != lite {
			t.Fatalf("pair %v: restored walk %+v, built %+v", p, got, lite)
		}
		seq, err := built.Route(src, dst)
		if err != nil {
			t.Fatalf("pair %v: sequential route: %v", p, err)
		}
		traced := built.Traced(src, dst, nil)
		delivered := built.Deliver(src, dst, noFaults, faultsim.Reliability{}, uint64(i), nil)
		for _, walk := range []struct {
			name string
			path []int
		}{{"traced", traced.Path}, {"concurrent", concurrent[i].Path}, {"delivered", delivered.Sim.Path}} {
			if !slices.Equal(walk.path, seq.Path) {
				t.Fatalf("pair %v: %s walk %v, sequential %v", p, walk.name, walk.path, seq.Path)
			}
		}
		if lite.Err != nil || lite.Dst != dst || lite.Hops != len(seq.Path)-1 ||
			lite.MaxHeaderBits != traced.MaxHeaderBits || math.Float64bits(lite.Cost) != math.Float64bits(traced.Cost) {
			t.Fatalf("pair %v: shape %+v disagrees with the recorded walk (%d hops, cost %v, header %d)",
				p, lite, len(seq.Path)-1, traced.Cost, traced.MaxHeaderBits)
		}
		if d := a.Dist(src, dst); lite.Cost > built.StretchBound*d+1e-9 {
			t.Fatalf("pair %v: stretch %.4f exceeds bound %.4f", p, lite.Cost/d, built.StretchBound)
		}
	}
}

// headerPhased reports whether the entry's header type implements
// trace.Phased.
func (sp *spec[S, H]) headerPhased() bool {
	var h H
	_, ok := any(h).(trace.Phased)
	return ok
}

// TestRegistryLookups pins the table's order and the lookups' errors.
func TestRegistryLookups(t *testing.T) {
	want := []string{
		"simple-labeled",
		"scale-free-labeled",
		"name-independent",
		"scale-free-name-independent",
		"full-table",
		"single-tree",
	}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if _, err := Lookup("no-such-scheme"); err == nil {
		t.Fatal("unknown name resolved")
	}
	if _, err := Resolve([]string{"full-table", "no-such-scheme"}); err == nil {
		t.Fatal("unknown name in a list resolved")
	}
	if _, err := Resolve([]string{"full-table", "simple-labeled", "full-table"}); err == nil {
		t.Fatal("repeated name resolved")
	}
	got, err := Resolve([]string{"single-tree", "simple-labeled"})
	if err != nil || len(got) != 2 || got[0].Name() != "single-tree" || got[1].Name() != "simple-labeled" {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
}

// TestEncodeSnapshotRejectsMismatchedImpl: a blob is never half
// written, whatever the entry is handed.
func TestEncodeSnapshotRejectsMismatchedImpl(t *testing.T) {
	var w bits.Writer
	for _, e := range All() {
		if err := e.EncodeSnapshot(&w, 42); err == nil {
			t.Fatalf("%s accepted an int", e.Name())
		}
	}
	if w.Len() != 0 {
		t.Fatalf("failed encodes wrote %d bits", w.Len())
	}
}

// TestEpsCaps pins each entry's ε cap: at ε=0.6 every capped entry
// builds (its constructor alone would reject 0.6) with the stretch
// bound it has at ε = cap.
func TestEpsCaps(t *testing.T) {
	caps := map[string]float64{
		"simple-labeled":              0.5,
		"scale-free-labeled":          0.25,
		"name-independent":            1.0 / 3,
		"scale-free-name-independent": 0.25,
		"full-table":                  0.6, // no cap
		"single-tree":                 0.6, // no cap
	}
	g, _, err := graph.RandomGeometric(40, 0.35, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	for _, e := range All() {
		over, err := e.Build(g, a, 0.6, 1)
		if err != nil {
			t.Fatalf("%s at eps 0.6: %v", e.Name(), err)
		}
		atCap, err := e.Build(g, a, caps[e.Name()], 1)
		if err != nil {
			t.Fatal(err)
		}
		if over.StretchBound != atCap.StretchBound {
			t.Fatalf("%s: bound at eps 0.6 is %v, at the cap %v", e.Name(), over.StretchBound, atCap.StretchBound)
		}
	}
}

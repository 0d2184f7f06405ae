package faultsim

import (
	"bytes"
	"math"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/trace"
)

func traceFixture(t *testing.T) (*graph.Graph, *metric.APSP) {
	t.Helper()
	g, _, err := graph.RandomGeometric(64, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g, metric.NewAPSP(g)
}

// TestDeliverTracedFinalAttempt pins the trace semantics under faults:
// the surviving hop log describes the FINAL attempt's walk (matching
// Result.Sim), and the trace's Attempts/Drops report the whole
// delivery.
func TestDeliverTracedFinalAttempt(t *testing.T) {
	g, a := traceFixture(t)
	s := baseline.NewFullTable(g, a)
	in := NewInjector(FaultPlan{Seed: 7, Loss: 0.15})
	rel := DefaultReliability

	pairs := core.SamplePairs(g.N(), 40, 13)
	sawRetry := false
	for i, p := range pairs {
		tr := &trace.Trace{}
		res := DeliverTraced(g, s, p[0], p[1], 0, in, rel, uint64(i), tr)
		if res.Sim.Err != nil {
			t.Fatalf("pair (%d,%d): %v", p[0], p[1], res.Sim.Err)
		}
		if int(tr.Attempts) != res.Attempts || int(tr.Drops) != res.Drops {
			t.Fatalf("pair (%d,%d): trace attempts/drops (%d,%d) != result (%d,%d)",
				p[0], p[1], tr.Attempts, tr.Drops, res.Attempts, res.Drops)
		}
		if res.Attempts > 1 {
			sawRetry = true
		}
		// The hop log is the final attempt's walk, whether it arrived or
		// was dropped mid-way.
		if len(tr.Hops) != len(res.Sim.Path)-1 {
			t.Fatalf("pair (%d,%d): %d hop records for final walk of %d hops",
				p[0], p[1], len(tr.Hops), len(res.Sim.Path)-1)
		}
		for j, h := range tr.Hops {
			if int(h.From) != res.Sim.Path[j] || int(h.To) != res.Sim.Path[j+1] {
				t.Fatalf("pair (%d,%d) hop %d: trace %d->%d vs path %d->%d",
					p[0], p[1], j, h.From, h.To, res.Sim.Path[j], res.Sim.Path[j+1])
			}
		}
		if math.Float64bits(tr.Cost()) != math.Float64bits(res.Sim.Cost) {
			t.Fatalf("pair (%d,%d): trace cost %v != sim cost %v", p[0], p[1], tr.Cost(), res.Sim.Cost)
		}
		if res.Delivered && int(tr.Dst) != res.Sim.Dst {
			t.Fatalf("pair (%d,%d): trace dst %d != sim dst %d", p[0], p[1], tr.Dst, res.Sim.Dst)
		}
	}
	if !sawRetry {
		t.Fatal("fault plan injected no retries; the final-attempt property went unexercised")
	}
}

// TestDeliverTracedDeterministic pins byte-determinism under fault
// injection: the same (plan, delivery id) draws the same faults, so the
// trace replays bit-identically.
func TestDeliverTracedDeterministic(t *testing.T) {
	g, a := traceFixture(t)
	s := baseline.NewFullTable(g, a)
	rel := DefaultReliability

	for id := uint64(0); id < 20; id++ {
		in1 := NewInjector(FaultPlan{Seed: 3, Loss: 0.2})
		in2 := NewInjector(FaultPlan{Seed: 3, Loss: 0.2})
		tr1, tr2 := &trace.Trace{}, &trace.Trace{}
		DeliverTraced(g, s, 1, 40, 0, in1, rel, id, tr1)
		DeliverTraced(g, s, 1, 40, 0, in2, rel, id, tr2)
		if !bytes.Equal(tr1.Marshal(), tr2.Marshal()) {
			t.Fatalf("delivery %d: traced replay differs under identical fault plans", id)
		}
	}
}

// TestDeliverTracedMatchesUntraced pins that attaching a trace does not
// perturb the delivery: same faults, same walk, same outcome.
func TestDeliverTracedMatchesUntraced(t *testing.T) {
	g, a := traceFixture(t)
	s := baseline.NewFullTable(g, a)
	rel := DefaultReliability

	for id := uint64(0); id < 20; id++ {
		inU := NewInjector(FaultPlan{Seed: 5, Loss: 0.2})
		inT := NewInjector(FaultPlan{Seed: 5, Loss: 0.2})
		u := Deliver(g, s, 2, 50, 0, inU, rel, id)
		tr := &trace.Trace{}
		tc := DeliverTraced(g, s, 2, 50, 0, inT, rel, id, tr)
		if u.Delivered != tc.Delivered || u.Attempts != tc.Attempts || u.Drops != tc.Drops ||
			math.Float64bits(u.Sim.Cost) != math.Float64bits(tc.Sim.Cost) {
			t.Fatalf("delivery %d: traced outcome %+v != untraced %+v", id, tc, u)
		}
	}
}

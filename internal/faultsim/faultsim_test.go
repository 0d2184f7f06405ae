package faultsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/walk"
)

// erased bundles one scheme's type-erased runners so a single table test
// can drive every adapter through both simulators.
type erased struct {
	name    string
	addr    func(int) int // node id -> scheme address (label or name)
	maxHops int
	simRun  func(d []walk.Delivery, maxHops int) []walk.Result
	fsRun   func(d []walk.Delivery, maxHops int, plan FaultPlan, rel Reliability) []Result
}

func erase[H walk.Header](name string, g *graph.Graph, r walk.Router[H], addr func(int) int, maxHops int) erased {
	return erased{
		name:    name,
		addr:    addr,
		maxHops: maxHops,
		simRun: func(d []walk.Delivery, maxHops int) []walk.Result {
			return walk.Run(g, r, d, maxHops)
		},
		fsRun: func(d []walk.Delivery, maxHops int, plan FaultPlan, rel Reliability) []Result {
			return Run(g, r, d, maxHops, plan, rel)
		},
	}
}

// allSchemes compiles every scheme adapter on one geometric graph.
func allSchemes(t *testing.T, n int, seed int64) (*graph.Graph, []erased) {
	t.Helper()
	g, _, err := graph.RandomGeometric(n, 0.25, seed)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	self := func(v int) int { return v }

	ft := baseline.NewFullTable(g, a)
	st, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := nameind.RandomNaming(g.N(), seed+2)
	ni, err := nameind.NewSimple(g, a, nm, sl, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sfUnder, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sfni, err := nameind.NewScaleFree(g, a, nm, sfUnder, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return g, []erased{
		erase("full-table", g, ft, self, 0),
		erase("single-tree", g, st, self, 0),
		erase("simple-labeled", g, sl, sl.LabelOf, 0),
		erase("scale-free-labeled", g, sf, sf.LabelOf, 64*g.N()),
		erase("name-independent", g, ni, nm.NameOf, 256*g.N()),
		erase("scale-free-name-independent", g, sfni, nm.NameOf, 512*g.N()),
	}
}

// TestZeroPlanMatchesSim is the acceptance gate: under a zero FaultPlan
// and zero Reliability, faultsim.Run's walks are identical — path, cost,
// header accounting, destination — to walk.Run's for every scheme.
func TestZeroPlanMatchesSim(t *testing.T) {
	g, schemes := allSchemes(t, 80, 21)
	pairs := core.SamplePairs(g.N(), 200, 22)
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			deliveries := make([]walk.Delivery, len(pairs))
			for i, p := range pairs {
				deliveries[i] = walk.Delivery{Src: p[0], Dst: sc.addr(p[1])}
			}
			want := sc.simRun(deliveries, sc.maxHops)
			got := sc.fsRun(deliveries, sc.maxHops, FaultPlan{}, Reliability{})
			if len(got) != len(want) {
				t.Fatalf("result count %d, want %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].Delivered {
					t.Fatalf("delivery %d not delivered under zero plan: %v", i, got[i].Sim.Err)
				}
				if got[i].Attempts != 1 || got[i].Drops != 0 || got[i].Time != 0 {
					t.Fatalf("delivery %d accounting off under zero plan: %+v", i, got[i])
				}
				if !reflect.DeepEqual(got[i].Sim, want[i]) {
					t.Fatalf("delivery %d diverged:\nfaultsim %+v\nsim      %+v", i, got[i].Sim, want[i])
				}
			}
		})
	}
}

// TestRunDeterministic pins the seed guarantee: identical plans yield
// byte-identical result sets.
func TestRunDeterministic(t *testing.T) {
	g, schemes := allSchemes(t, 60, 31)
	pairs := core.SamplePairs(g.N(), 150, 32)
	plan := FaultPlan{Seed: 7, Loss: 0.15, HopLatency: 1, LatencyJitter: 0.5}
	for _, sc := range schemes[:3] {
		deliveries := make([]walk.Delivery, len(pairs))
		for i, p := range pairs {
			deliveries[i] = walk.Delivery{Src: p[0], Dst: sc.addr(p[1])}
		}
		a := sc.fsRun(deliveries, sc.maxHops, plan, DefaultReliability)
		b := sc.fsRun(deliveries, sc.maxHops, plan, DefaultReliability)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs of the same plan diverged", sc.name)
		}
	}
}

// TestRetriesOnlyGrowDeliveredSet proves the structural guarantee the
// resilience acceptance criterion relies on: attempt 0 draws are shared,
// so a delivery that succeeds without retries also succeeds with them.
func TestRetriesOnlyGrowDeliveredSet(t *testing.T) {
	g, schemes := allSchemes(t, 70, 41)
	pairs := core.SamplePairs(g.N(), 250, 42)
	plan := FaultPlan{Seed: 9, Loss: 0.2}
	for _, sc := range schemes {
		deliveries := make([]walk.Delivery, len(pairs))
		for i, p := range pairs {
			deliveries[i] = walk.Delivery{Src: p[0], Dst: sc.addr(p[1])}
		}
		once := sc.fsRun(deliveries, sc.maxHops, plan, Reliability{MaxAttempts: 1})
		retried := sc.fsRun(deliveries, sc.maxHops, plan, DefaultReliability)
		gained := 0
		for i := range once {
			if once[i].Delivered && !retried[i].Delivered {
				t.Fatalf("%s: delivery %d succeeded without retries but failed with them", sc.name, i)
			}
			if !once[i].Delivered && retried[i].Delivered {
				gained++
			}
		}
		if gained == 0 {
			t.Errorf("%s: retries recovered no deliveries at 20%% loss (suspicious)", sc.name)
		}
	}
}

// pathFixture returns a unit path graph and a full-table router on it.
func pathFixture(t *testing.T, n int) (*graph.Graph, *baseline.FullTable) {
	t.Helper()
	g, err := graph.Path(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, baseline.NewFullTable(g, metric.NewAPSP(g))
}

func TestPermanentEdgeOutageKillsDelivery(t *testing.T) {
	g, r := pathFixture(t, 6)
	plan := FaultPlan{EdgeOutages: []EdgeOutage{{U: 2, V: 3}}} // down from t=0, forever
	in := NewInjector(plan)
	res := Deliver(g, r, 0, 5, 0, in, DefaultReliability, 0)
	if res.Delivered {
		t.Fatal("delivered across a permanently failed edge")
	}
	if res.Attempts != DefaultReliability.MaxAttempts || res.Drops != res.Attempts {
		t.Fatalf("expected %d dropped attempts, got %+v", DefaultReliability.MaxAttempts, res)
	}
	// Routes that never cross the outage are untouched.
	if res := Deliver(g, r, 0, 2, 0, in, Reliability{}, 1); !res.Delivered {
		t.Fatalf("unaffected route failed: %+v", res)
	}
}

func TestChurnRecoversWithinWindow(t *testing.T) {
	g, r := pathFixture(t, 4)
	// Node 2 is down for virtual time [0, 5). With one hop per unit of
	// latency and backoff 4, 8, ... the first attempt dies at node 2 but
	// a retry arrives there after the window closes.
	plan := FaultPlan{
		HopLatency:  1,
		NodeOutages: []NodeOutage{{Node: 2, Window: Window{From: 0, Until: 5}}},
	}
	in := NewInjector(plan)
	rel := Reliability{MaxAttempts: 3, BaseBackoff: 4}
	res := Deliver(g, r, 0, 3, 0, in, rel, 0)
	if !res.Delivered {
		t.Fatalf("churned node never recovered: %+v", res)
	}
	if res.Attempts < 2 {
		t.Fatalf("first attempt should have been dropped at the churned node, got %+v", res)
	}
	// Without retries the same delivery is lost.
	if res := Deliver(g, r, 0, 3, 0, in, Reliability{}, 0); res.Delivered {
		t.Fatal("delivered through a down node without retrying")
	}
}

func TestDeadlineBoundsAttempts(t *testing.T) {
	g, r := pathFixture(t, 5)
	plan := FaultPlan{Seed: 3, EdgeLoss: []EdgeLoss{{U: 1, V: 2, Loss: 1}}}
	in := NewInjector(plan)
	rel := Reliability{MaxAttempts: 100, BaseBackoff: 1, Deadline: 4}
	res := Deliver(g, r, 0, 4, 0, in, rel, 0)
	if res.Delivered {
		t.Fatal("delivered across a loss-1 edge")
	}
	if res.Attempts >= 100 {
		t.Fatalf("deadline did not bound attempts: %d", res.Attempts)
	}
}

func TestEdgeLossOverride(t *testing.T) {
	g, r := pathFixture(t, 3)
	// Plan-wide loss 1 would kill everything; the override rescues one
	// edge, so a route over only that edge still delivers first try.
	plan := FaultPlan{Loss: 1, EdgeLoss: []EdgeLoss{{U: 0, V: 1, Loss: 0}}}
	in := NewInjector(plan)
	if res := Deliver(g, r, 0, 1, 0, in, Reliability{}, 0); !res.Delivered || res.Attempts != 1 {
		t.Fatalf("override edge lossy: %+v", res)
	}
	if res := Deliver(g, r, 0, 2, 0, in, DefaultReliability, 1); res.Delivered {
		t.Fatal("delivered over a loss-1 edge")
	}
}

func TestRoutingErrorsAreNotRetried(t *testing.T) {
	g, r := pathFixture(t, 4)
	in := NewInjector(FaultPlan{})
	// Hop budget 1 is a deterministic routing failure: retries must not
	// burn attempts on it, and the error must match sim's exactly.
	res := Deliver(g, r, 0, 3, 1, in, DefaultReliability, 0)
	if res.Delivered || res.Attempts != 1 {
		t.Fatalf("routing error retried: %+v", res)
	}
	want := walk.HopLimitError(1).Error()
	if res.Sim.Err == nil || res.Sim.Err.Error() != want {
		t.Fatalf("error %v, want %q", res.Sim.Err, want)
	}
	// Prepare errors surface the same way.
	res = Deliver(g, r, 0, -3, 0, in, DefaultReliability, 1)
	if res.Sim.Err == nil || res.Attempts != 1 {
		t.Fatalf("prepare error not surfaced once: %+v", res)
	}
}

func TestLatencyAccountsVirtualTime(t *testing.T) {
	g, r := pathFixture(t, 5)
	in := NewInjector(FaultPlan{HopLatency: 2})
	res := Deliver(g, r, 0, 4, 0, in, Reliability{}, 0)
	if !res.Delivered {
		t.Fatal(res.Sim.Err)
	}
	if want := 8.0; math.Abs(res.Time-want) > 1e-9 {
		t.Fatalf("4 hops at latency 2 took %v, want %v", res.Time, want)
	}
	// Jitter only widens hops.
	in = NewInjector(FaultPlan{Seed: 5, HopLatency: 2, LatencyJitter: 0.5})
	res = Deliver(g, r, 0, 4, 0, in, Reliability{}, 0)
	if res.Time < 8 || res.Time > 12 {
		t.Fatalf("jittered time %v outside [8, 12]", res.Time)
	}
}

func TestWindowSemantics(t *testing.T) {
	cases := []struct {
		w    Window
		t    float64
		want bool
	}{
		{Window{From: 1, Until: 2}, 0.5, false},
		{Window{From: 1, Until: 2}, 1, true},
		{Window{From: 1, Until: 2}, 2, false},
		{Window{From: 1}, 1e9, true}, // Until <= From: permanent
		{Window{From: 3, Until: 3}, 4, true},
		{Window{}, 0, true}, // zero window: down forever from 0
	}
	for i, c := range cases {
		if got := c.w.covers(c.t); got != c.want {
			t.Errorf("case %d: %+v covers(%v) = %v, want %v", i, c.w, c.t, got, c.want)
		}
	}
}

func TestHopLimitErrorMentionsBudget(t *testing.T) {
	if !strings.Contains(walk.HopLimitError(42).Error(), "42") {
		t.Fatal("hop limit error does not name the budget")
	}
}

package sim

import (
	"runtime"
	"testing"
	"time"

	"compactrouting/internal/baseline"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/walk"
)

// TestRunLeaksNoGoroutines regression-tests the detached forward
// sender: under heavy convergence (every delivery addressed to one
// node, mailboxes capacity 8) detached senders pile up, and before the
// done-select fix any sender still blocked at wind-down leaked forever.
func TestRunLeaksNoGoroutines(t *testing.T) {
	g, a := fixtures(t, 60, 19)
	s := baseline.NewFullTable(g, a)
	var deliveries []walk.Delivery
	for src := 0; src < g.N(); src++ {
		for k := 0; k < 12; k++ {
			deliveries = append(deliveries, walk.Delivery{Src: src, Dst: 0})
		}
	}
	before := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		results := walk.Run[baseline.Destination](g, s, deliveries, 0)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d delivery %d: %v", round, i, res.Err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 8 high-convergence runs",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHopBudgetBoundaryAligned pins the shared hop-budget semantics of
// RouteOnce, RouteLite and Run with one table: a walk of exactly
// maxHops hops (plus the free arrival step) delivers; one more hop
// fails, in all three drivers, with the identical HopLimitError.
func TestHopBudgetBoundaryAligned(t *testing.T) {
	g, err := graph.Path(9, 1) // 0-1-...-8, route 0->k takes exactly k hops
	if err != nil {
		t.Fatal(err)
	}
	s := baseline.NewFullTable(g, metric.NewAPSP(g))
	cases := []struct {
		dst, maxHops int
		ok           bool
	}{
		{1, 1, true},
		{4, 4, true},
		{4, 3, false},
		{8, 8, true},
		{8, 7, false},
		{8, 1, false},
	}
	for _, c := range cases {
		once := walk.RouteOnce[baseline.Destination](g, s, 0, c.dst, c.maxHops)
		lite := walk.RouteLite[baseline.Destination](g, s, 0, c.dst, c.maxHops)
		run := walk.Run[baseline.Destination](g, s, []walk.Delivery{{Src: 0, Dst: c.dst}}, c.maxHops)[0]
		if (once.Err == nil) != c.ok {
			t.Errorf("RouteOnce 0->%d maxHops=%d: err=%v, want ok=%v", c.dst, c.maxHops, once.Err, c.ok)
		}
		if (lite.Err == nil) != c.ok {
			t.Errorf("RouteLite 0->%d maxHops=%d: err=%v, want ok=%v", c.dst, c.maxHops, lite.Err, c.ok)
		}
		if (run.Err == nil) != c.ok {
			t.Errorf("Run 0->%d maxHops=%d: err=%v, want ok=%v", c.dst, c.maxHops, run.Err, c.ok)
		}
		if !c.ok {
			want := walk.HopLimitError(c.maxHops).Error()
			if once.Err.Error() != want || lite.Err.Error() != want || run.Err.Error() != want {
				t.Errorf("0->%d maxHops=%d: errors diverge: RouteOnce %q, RouteLite %q, Run %q, want %q",
					c.dst, c.maxHops, once.Err, lite.Err, run.Err, want)
			}
		}
		if c.ok {
			if len(once.Path)-1 != c.dst || lite.Hops != c.dst || len(run.Path)-1 != c.dst {
				t.Errorf("0->%d: hop counts %d / %d / %d, want %d",
					c.dst, len(once.Path)-1, lite.Hops, len(run.Path)-1, c.dst)
			}
		}
	}
}

// TestRunPrepareErrorsAllAdapters exercises Prepare-error propagation
// through the concurrent Run for every adapter family (only RouteOnce's
// path was covered before), and checks the failed delivery is reported
// exactly like RouteOnce reports it: Err set, no walk.
func TestRunPrepareErrorsAllAdapters(t *testing.T) {
	g, a := fixtures(t, 50, 23)
	sl, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := nameind.RandomNaming(g.N(), 24)
	ni, err := nameind.NewSimple(g, a, nm, sl, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	st, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft := baseline.NewFullTable(g, a)

	check := func(name string, run func(bad, good int) [2]walk.Result, bad, good int) {
		t.Helper()
		res := run(bad, good)
		if res[0].Err == nil {
			t.Errorf("%s: Prepare(%d) error did not propagate through Run", name, bad)
		}
		if res[0].Path != nil || res[0].Dst != 0 || res[0].Cost != 0 {
			t.Errorf("%s: failed delivery carries a walk: %+v", name, res[0])
		}
		if res[1].Err != nil {
			t.Errorf("%s: good delivery failed: %v", name, res[1].Err)
		}
	}

	check("full-table", func(bad, good int) [2]walk.Result {
		r := walk.Run[baseline.Destination](g, ft,
			[]walk.Delivery{{Src: 0, Dst: bad}, {Src: 0, Dst: good}}, 0)
		return [2]walk.Result{r[0], r[1]}
	}, -5, 1)
	check("single-tree", func(bad, good int) [2]walk.Result {
		r := walk.Run[baseline.TreeHeader](g, st,
			[]walk.Delivery{{Src: 0, Dst: bad}, {Src: 0, Dst: good}}, 0)
		return [2]walk.Result{r[0], r[1]}
	}, g.N()+3, 1)
	check("simple-labeled", func(bad, good int) [2]walk.Result {
		r := walk.Run[labeled.SimpleHeader](g, SimpleLabeledRouter{S: sl},
			[]walk.Delivery{{Src: 0, Dst: bad}, {Src: 0, Dst: good}}, 0)
		return [2]walk.Result{r[0], r[1]}
	}, -1, sl.LabelOf(1))
	check("scale-free-labeled", func(bad, good int) [2]walk.Result {
		r := walk.Run[labeled.SFHeader](g, sf,
			[]walk.Delivery{{Src: 0, Dst: bad}, {Src: 0, Dst: good}}, 64*g.N())
		return [2]walk.Result{r[0], r[1]}
	}, -2, sf.LabelOf(1))
	check("name-independent", func(bad, good int) [2]walk.Result {
		r := walk.Run[nameind.NIHeader](g, NameIndependentRouter{S: ni},
			[]walk.Delivery{{Src: 0, Dst: bad}, {Src: 0, Dst: good}}, 256*g.N())
		return [2]walk.Result{r[0], r[1]}
	}, -7, nm.NameOf(1))
}

// TestMaxHeaderBitsMonotone replays multi-hop deliveries hop by hop and
// checks the recorded MaxHeaderBits is exactly the running maximum of
// every header en route — at least the initial header, never shrunk by
// a later smaller header — and that Run and RouteOnce agree on it.
func TestMaxHeaderBitsMonotone(t *testing.T) {
	g, a := fixtures(t, 70, 27)
	s, err := labeled.NewScaleFree(g, a, 0.25) // headers mutate en route
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.SamplePairs(g.N(), 120, 28)
	deliveries := make([]walk.Delivery, len(pairs))
	for i, p := range pairs {
		deliveries[i] = walk.Delivery{Src: p[0], Dst: s.LabelOf(p[1])}
	}
	results := walk.Run[labeled.SFHeader](g, s, deliveries, 64*g.N())
	multiHop := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("delivery %d: %v", i, res.Err)
		}
		if len(res.Path) > 2 {
			multiHop++
		}
		// Manual replay of the same step functions.
		h, err := s.PrepareHeader(deliveries[i].Dst)
		if err != nil {
			t.Fatal(err)
		}
		initial := h.Bits()
		max := initial
		at := deliveries[i].Src
		for {
			next, nh, arrived, err := s.Step(at, h)
			if err != nil {
				t.Fatal(err)
			}
			if arrived {
				break
			}
			if b := nh.Bits(); b > max {
				max = b
			}
			h = nh
			at = next
		}
		if res.MaxHeaderBits != max {
			t.Fatalf("delivery %d: Run recorded %d header bits, replay max is %d", i, res.MaxHeaderBits, max)
		}
		if res.MaxHeaderBits < initial {
			t.Fatalf("delivery %d: recorded max %d below initial header %d", i, res.MaxHeaderBits, initial)
		}
		once := walk.RouteOnce[labeled.SFHeader](g, s, deliveries[i].Src, deliveries[i].Dst, 64*g.N())
		if once.MaxHeaderBits != res.MaxHeaderBits {
			t.Fatalf("delivery %d: RouteOnce max %d != Run max %d", i, once.MaxHeaderBits, res.MaxHeaderBits)
		}
	}
	if multiHop == 0 {
		t.Fatal("no multi-hop deliveries sampled; monotonicity untested")
	}
}

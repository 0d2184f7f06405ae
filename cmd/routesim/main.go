// Command routesim runs a routing scheme under the concurrent
// message-passing model (walk.Run): every node is a goroutine,
// every hop a message, and forwarding decisions are pure functions of
// (local table, packet header). It reports delivery statistics and
// cross-checks a sample against the sequential router.
//
// Usage:
//
//	routesim -n 300 -packets 2000 -scheme simple-labeled
//
// Schemes (internal/schemes): simple-labeled, scale-free-labeled,
// name-independent, scale-free-name-independent, full-table,
// single-tree. -eps is clamped to each scheme's cap, as in routed.
//
// -backend selects the distance backend the scheme is built on: dense
// (full APSP matrices) or lazy (on-demand truncated Dijkstra rows).
// Both yield byte-identical tables and therefore identical walks.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/schemes"
)

func main() {
	var (
		n       = flag.Int("n", 300, "target network size")
		packets = flag.Int("packets", 2000, "concurrent deliveries")
		scheme  = flag.String("scheme", "simple-labeled", strings.Join(schemes.Names(), "|"))
		seed    = flag.Int64("seed", 1, "random seed")
		eps     = flag.Float64("eps", 0.5, "stretch parameter, clamped to the scheme's cap")
		backend = flag.String("backend", "dense", "distance backend: dense|lazy")
	)
	flag.Parse()
	if err := run(*n, *packets, *scheme, *seed, *eps, *backend); err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
}

func run(n, packets int, scheme string, seed int64, eps float64, backend string) error {
	entry, err := schemes.Lookup(scheme)
	if err != nil {
		return err
	}
	radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
	g, _, err := graph.RandomGeometric(n, radius, seed)
	if err != nil {
		return err
	}
	a, err := metric.NewBackend(g, backend)
	if err != nil {
		return err
	}
	fmt.Printf("network: n=%d m=%d, %d concurrent packets, scheme %s\n", g.N(), g.M(), packets, scheme)

	pairs := core.SamplePairs(g.N(), packets, seed+1)
	inst, err := entry.Build(g, a, eps, seed+2)
	if err != nil {
		return err
	}
	// bound is the scheme's analytical stretch guarantee (1 for the full
	// table, +Inf for the single tree), so the violation check below
	// covers labeled and name-independent paths alike.
	bound := inst.StretchBound
	start := time.Now()
	results := inst.Run(pairs, nil)
	elapsed := time.Since(start)

	var stretches []float64
	hops, maxHdr, failures := 0, 0, 0
	for i, res := range results {
		if res.Err != nil {
			if failures == 0 {
				fmt.Fprintf(os.Stderr, "routesim: FIRST FAILURE scheme=%s seed=%d pair=(%d,%d): %v\n",
					scheme, seed, pairs[i][0], pairs[i][1], res.Err)
			}
			failures++
			continue
		}
		d := a.Dist(pairs[i][0], pairs[i][1])
		if d > 0 {
			stretches = append(stretches, res.Cost/d)
		}
		hops += len(res.Path) - 1
		if res.MaxHeaderBits > maxHdr {
			maxHdr = res.MaxHeaderBits
		}
	}
	if failures > 0 {
		return fmt.Errorf("scheme=%s seed=%d: %d of %d deliveries failed", scheme, seed, failures, len(results))
	}

	// Unified stretch-bound check: a delivered route whose stretch
	// exceeds the scheme's analytical guarantee is a correctness bug, so
	// the run must exit nonzero — for labeled and name-independent
	// schemes alike (historically only the latter were checked).
	if err := checkStretchBound(scheme, seed, stretches, bound); err != nil {
		return err
	}

	// Cross-check a sample of the concurrent walks against the
	// sequential router: the two drive the SAME step functions, so any
	// divergence means hidden shared state leaked between hops.
	checked := len(results)
	if checked > 200 {
		checked = 200
	}
	for i := 0; i < checked; i++ {
		seq, err := inst.Route(pairs[i][0], pairs[i][1])
		if err != nil {
			return fmt.Errorf("cross-check scheme=%s seed=%d pair=(%d,%d): sequential router failed: %w",
				scheme, seed, pairs[i][0], pairs[i][1], err)
		}
		if !slices.Equal(results[i].Path, seq.Path) {
			return fmt.Errorf("cross-check DIVERGED scheme=%s seed=%d pair=(%d,%d): concurrent path %v vs sequential %v",
				scheme, seed, pairs[i][0], pairs[i][1], results[i].Path, seq.Path)
		}
	}
	sort.Float64s(stretches)
	mean := 0.0
	for _, s := range stretches {
		mean += s
	}
	mean /= float64(len(stretches))
	fmt.Printf("delivered %d packets over %d node-goroutines in %v (%.0f hops/ms)\n",
		len(results), g.N(), elapsed.Round(time.Millisecond),
		float64(hops)/float64(elapsed.Milliseconds()+1))
	fmt.Printf("stretch: max %.3f, mean %.3f, p99 %.3f (bound %.3f) | max header %d bits\n",
		stretches[len(stretches)-1], mean,
		stretches[int(math.Ceil(0.99*float64(len(stretches))))-1], bound, maxHdr)
	fmt.Printf("cross-check: %d/%d walks identical to the sequential router\n", checked, len(results))
	return nil
}

// checkStretchBound fails the run when any delivered stretch exceeds
// the scheme's analytical bound (with the same float-accumulation slack
// the scheme packages' tests use). An infinite bound (single-tree)
// passes vacuously.
func checkStretchBound(scheme string, seed int64, stretches []float64, bound float64) error {
	const slack = 1e-9
	viol, worst := 0, 0.0
	for _, s := range stretches {
		if s > bound+slack {
			viol++
			if s > worst {
				worst = s
			}
		}
	}
	if viol > 0 {
		return fmt.Errorf("STRETCH BOUND VIOLATED scheme=%s seed=%d: %d of %d routes exceed %.3f (worst %.3f)",
			scheme, seed, viol, len(stretches), bound, worst)
	}
	return nil
}

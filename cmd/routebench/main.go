// Command routebench is the experiment driver: it regenerates the
// paper's tables and figures from live runs of the routing schemes (see
// DESIGN.md for the experiment index), runs the resilience (E12) and
// in-network construction (E14) sweeps, and writes the machine-readable
// bench sweeps.
//
// Usage:
//
//	routebench -exp all                     # everything, default sizes
//	routebench -exp table1 -n 512 -eps 0.2  # one experiment, custom size
//	routebench -json BENCH_routebench.json  # machine-readable bench sweep
//	routebench -exp apspfree -json BENCH_apspfree.json -timing=false
//	routebench -exp chaos -n 128 -pairs 300 -json BENCH_chaossim.json
//	routebench -exp dist -pairs 200 -json BENCH_distsim.json
//
// Experiments: table1, table2, fig1, fig2, fig3, storage, epsilon,
// ablation, overhead, dimension, oracle, apspfree, chaos, dist, all.
// -graph names a row of the graph-family table (internal/graph/families.go).
//
// -backend selects the distance backend the experiment env is compiled
// on: dense (the up-front APSP matrix) or lazy (on-demand truncated
// Dijkstra rows in a bounded cache). The two are byte-equivalent, so
// every result is identical; only build cost and memory change. -exp
// apspfree runs the E16 scaling family (the Krioukov–Fall–Yang
// stretch-CDF reproduction on power-law graphs), which rides the lazy
// backend past the dense backend's n² wall — sizes set by -sizes.
//
// -exp chaos injects lossy links, failed edges, latency and retries
// (internal/faultsim) into every scheme and reports how delivery rate
// and stretch degrade; -loss and -fail set the sweep axes, -retries,
// -backoff, -maxbackoff, -jitter, -deadline and -latency the retry
// policy. -exp dist builds the tree substrate and the labeled Simple
// scheme by CONGEST-style message passing (internal/dist) at each of
// -sizes and reports construction cost next to table size, stretch and
// a byte-equality verdict against the oracle compiler; -scheme,
// -maxmsgbits and -buildloss set what is built, the message bound and
// the construction-time drop rate. Both sweeps build on the dense
// backend and print text tables unless -json names a file. Both are
// seed-deterministic: every fault draw is a pure hash of the seed,
// message delivery is serialized in sender-id order, and no wall-clock
// value is recorded, so the same flags write a byte-identical file
// (asserted by `make check`).
//
// With -json and any other -exp, the text experiments are skipped;
// instead every scheme is benchmarked on the -graph workload and one
// JSON record per scheme (stretch percentiles and histogram, table
// bits, per-phase build wall times, ns/query) is written to the given
// path, so benchmark trajectories can be compared across commits.
// -trace evaluates through the traced simulator adapters and adds the
// per-phase detour decomposition to every record. -timing=false zeroes
// the wall-clock fields, making the file a pure function of the flags
// (`make check` double-runs it, traced, and diffs). -cpuprofile
// captures a CPU profile of the whole build+sweep (`make profile`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"compactrouting/internal/exp"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
)

func main() {
	var (
		which   = flag.String("exp", "all", "experiment: table1|table2|fig1|fig2|fig3|storage|epsilon|ablation|overhead|dimension|oracle|apspfree|chaos|dist|all")
		n       = flag.Int("n", 256, "target network size")
		eps     = flag.Float64("eps", 0.25, "stretch parameter epsilon (clamped per scheme)")
		pairs   = flag.Int("pairs", 1000, "routed source-destination pairs per experiment (0 = all pairs)")
		seed    = flag.Int64("seed", 1, "random seed for generators, namings, sampling and fault draws")
		kind    = flag.String("graph", "geometric", "workload graph family: "+graph.FamilyNames())
		backend = flag.String("backend", "dense", "distance backend: dense (up-front APSP matrix) or lazy (on-demand truncated Dijkstra rows); byte-identical results either way")
		sizes   = flag.String("sizes", "", "with -exp apspfree or dist: comma-separated graph sizes overriding the default ladder")
		jsonP   = flag.String("json", "", "write machine-readable records to this path instead of text tables")
		traced  = flag.Bool("trace", false, "with -json, evaluate through the traced simulator adapters and add the per-phase detour decomposition to every record")
		timing  = flag.Bool("timing", true, "record wall-clock fields (apsp_ms, build_ms, total_ms, ns_per_query) in -json records; false makes the output seed-deterministic")
		profile = flag.String("cpuprofile", "", "write a CPU profile of the full build+sweep to this path")

		loss     = flag.String("loss", "0,0.02,0.05,0.1,0.2", "with -exp chaos: comma-separated per-hop loss probabilities to sweep")
		fail     = flag.String("fail", "0,0.05,0.1", "with -exp chaos: comma-separated fractions of edges to delete")
		retries  = flag.Int("retries", faultsim.DefaultReliability.MaxAttempts, "with -exp chaos: max transmissions per delivery (1 = no retry)")
		backoff  = flag.Float64("backoff", faultsim.DefaultReliability.BaseBackoff, "with -exp chaos: base retry backoff in virtual time (doubles per retry)")
		maxBack  = flag.Float64("maxbackoff", faultsim.DefaultReliability.MaxBackoff, "with -exp chaos: backoff cap (0 = uncapped)")
		jitter   = flag.Float64("jitter", faultsim.DefaultReliability.Jitter, "with -exp chaos: backoff jitter fraction")
		deadline = flag.Float64("deadline", 0, "with -exp chaos: per-delivery virtual-time deadline (0 = none)")
		latency  = flag.Float64("latency", 1, "with -exp chaos: virtual time per hop")

		distScheme = flag.String("scheme", "both", "with -exp dist: what to construct: tree|simple|both")
		maxMsgBits = flag.Int("maxmsgbits", 0, "with -exp dist: CONGEST per-message bit bound (0 = engine default)")
		buildLoss  = flag.Float64("buildloss", 0, "with -exp dist: per-transmission drop probability during construction")
	)
	flag.Parse()
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("routebench: wrote CPU profile to %s\n", *profile)
		}()
	}
	var err error
	switch {
	case *which == "apspfree":
		if *jsonP == "" {
			fatal(fmt.Errorf("-exp apspfree writes JSON; pass -json PATH"))
		}
		err = runAPSPFree(*jsonP, *sizes, *eps, *pairs, *seed, *timing)
	case *which == "chaos":
		cfg := exp.ChaosConfig{
			Rel: faultsim.Reliability{
				MaxAttempts: *retries,
				BaseBackoff: *backoff,
				MaxBackoff:  *maxBack,
				Jitter:      *jitter,
				Deadline:    *deadline,
			},
			HopLatency: *latency,
		}
		if cfg.LossRates, err = parseFloats(*loss); err != nil {
			fatal(fmt.Errorf("-loss: %w", err))
		}
		if cfg.FailFracs, err = parseFloats(*fail); err != nil {
			fatal(fmt.Errorf("-fail: %w", err))
		}
		err = runChaos(*jsonP, *kind, *n, *eps, *pairs, *seed, cfg)
	case *which == "dist":
		opt := exp.DistOpts{Eps: *eps, Pairs: *pairs, Seed: *seed, MaxMsgBits: *maxMsgBits, Loss: *buildLoss}
		switch *distScheme {
		case "both":
			opt.Schemes = []string{"tree", "simple"}
		case "tree", "simple":
			opt.Schemes = []string{*distScheme}
		default:
			fatal(fmt.Errorf("-scheme: unknown value %q (want tree|simple|both)", *distScheme))
		}
		err = runDist(*jsonP, *kind, *sizes, opt)
	case *jsonP != "":
		err = runJSON(*jsonP, *n, *eps, *pairs, *seed, *kind, *backend, *timing, *traced)
	default:
		err = run(*which, *n, *eps, *pairs, *seed, *kind, *backend)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "routebench:", err)
	os.Exit(1)
}

// parseInts parses a comma-separated list of integers; "" is nil.
func parseInts(csv string) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of floats.
func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAPSPFree writes the E16 APSP-free scaling family (the KFY
// stretch-CDF reproduction on power-law graphs; see internal/exp).
func runAPSPFree(path, sizes string, eps float64, pairs int, seed int64, timing bool) error {
	opt := exp.APSPFreeOpts{Eps: eps, Pairs: pairs, Seed: seed, Timing: timing}
	var err error
	if opt.Sizes, err = parseInts(sizes); err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	if err := writeFile(path, func(w io.Writer) error { return exp.WriteAPSPFreeJSON(w, opt) }); err != nil {
		return err
	}
	fmt.Printf("routebench: wrote %s (apspfree, eps=%v, %d pairs)\n", path, eps, pairs)
	return nil
}

// runChaos runs the E12 resilience sweep on the kind family: text
// tables, or JSON records when path is set.
func runChaos(path, kind string, n int, eps float64, pairs int, seed int64, cfg exp.ChaosConfig) error {
	env, err := exp.NewEnv(kind, n, seed, "")
	if err != nil {
		return err
	}
	if path == "" {
		return exp.Resilience(os.Stdout, env, cfg, eps, pairs, seed)
	}
	if err := writeFile(path, func(w io.Writer) error { return exp.WriteChaosJSON(w, env, cfg, eps, pairs, seed) }); err != nil {
		return err
	}
	fmt.Printf("routebench: wrote %s (chaos, %s, eps=%v, %d pairs, %d loss x %d fail cells)\n",
		path, env.Name, eps, pairs, len(cfg.LossRates), len(cfg.FailFracs))
	return nil
}

// runDist runs the E14 in-network construction sweep on the kind
// family at each size: a text table, or JSON records when path is set.
func runDist(path, kind, sizes string, opt exp.DistOpts) error {
	ns, err := parseInts(sizes)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	records, err := exp.DistSweep(kind, ns, opt)
	if err != nil {
		return err
	}
	if path == "" {
		return exp.DistReport(os.Stdout, records)
	}
	if err := writeFile(path, func(w io.Writer) error { return exp.WriteDistJSON(w, records) }); err != nil {
		return err
	}
	fmt.Printf("routebench: wrote %s (dist, %s, %d records, eps=%v, loss=%v)\n",
		path, kind, len(records), opt.Eps, opt.Loss)
	return nil
}

// runJSON benchmarks every scheme on the workload and writes the
// records to path, reporting the build pipeline's per-phase wall time.
func runJSON(path string, n int, eps float64, pairs int, seed int64, kind, backend string, timing, traced bool) error {
	start := time.Now()
	env, err := exp.NewEnv(kind, n, seed, backend)
	if err != nil {
		return err
	}
	apspMS := float64(time.Since(start).Microseconds()) / 1000
	opt := exp.BenchOpts{Eps: eps, Pairs: pairs, Seed: seed, Timing: timing, ApspMS: apspMS, Trace: traced}
	sweepStart := time.Now()
	if err := writeFile(path, func(w io.Writer) error { return exp.WriteBenchJSON(w, env, opt) }); err != nil {
		return err
	}
	fmt.Printf("routebench: wrote %s (%s, n=%d, eps=%v, %d pairs)\n", path, env.Name, env.G.N(), eps, pairs)
	if timing {
		fmt.Printf("routebench: phases: apsp %.0f ms, schemes+sweep %.0f ms, total %.0f ms\n",
			apspMS, float64(time.Since(sweepStart).Microseconds())/1000,
			float64(time.Since(start).Microseconds())/1000)
	}
	return nil
}

func run(which string, n int, eps float64, pairs int, seed int64, kind, backend string) error {
	w := os.Stdout
	needEnv := map[string]bool{"table1": true, "table2": true, "fig1": true, "fig2": true, "epsilon": true, "ablation": true, "overhead": true, "oracle": true, "all": true}
	var env *exp.Env
	if needEnv[which] {
		var err error
		env, err = exp.NewEnv(kind, n, seed, backend)
		if err != nil {
			return err
		}
	}
	sep := func() { fmt.Fprintln(w, strings.Repeat("-", 100)) }
	runOne := func(name string) error {
		switch name {
		case "table1":
			return exp.Table1(w, env, eps, pairs, seed)
		case "table2":
			return exp.Table2(w, env, eps, pairs, seed)
		case "fig1":
			return exp.Fig1(w, env, eps, pairs, seed)
		case "fig2":
			return exp.Fig2(w, env, eps, pairs, seed)
		case "fig3":
			return exp.Fig3(w, pairs, seed)
		case "storage":
			return exp.Storage(w, []int{32, 64, 128}, seed)
		case "epsilon":
			return exp.Epsilon(w, env, pairs, seed)
		case "ablation":
			return exp.Ablation(w, env, pairs, seed)
		case "overhead":
			return exp.Overhead(w, env, eps, pairs, seed)
		case "dimension":
			return exp.Dimension(w, eps, pairs, seed)
		case "oracle":
			return exp.OracleSweep(w, env, pairs, seed)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if which == "all" {
		for _, name := range []string{"table1", "table2", "fig1", "fig2", "fig3", "storage", "epsilon", "ablation", "overhead", "dimension", "oracle"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if name == "fig2" {
				// Phase B of Algorithm 5 only triggers on metrics with
				// empty annuli; rerun the anatomy on one.
				expoEnv, err := exp.NewEnv("exp-path", 128, seed, "")
				if err != nil {
					return err
				}
				if err := exp.Fig2(w, expoEnv, eps, pairs, seed); err != nil {
					return fmt.Errorf("fig2/exp-path: %w", err)
				}
			}
			sep()
		}
		return nil
	}
	return runOne(which)
}

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/par"
	"compactrouting/internal/schemes"
)

// ChaosConfig parameterizes the resilience sweep (routebench -exp chaos).
type ChaosConfig struct {
	// LossRates are the per-hop packet-loss probabilities swept.
	LossRates []float64
	// FailFracs are the fractions of edges taken down (permanently, from
	// virtual time 0) swept.
	FailFracs []float64
	// Rel is the retry policy compared against single-shot sends.
	Rel faultsim.Reliability
	// HopLatency is the virtual time per hop (interacts with Rel's
	// backoff and deadline).
	HopLatency float64
}

// DefaultChaosConfig returns the standard sweep written to
// BENCH_chaossim.json.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		LossRates:  []float64{0, 0.02, 0.05, 0.1, 0.2},
		FailFracs:  []float64{0, 0.05, 0.1},
		Rel:        faultsim.DefaultReliability,
		HopLatency: 1,
	}
}

// ChaosRecord is one (scheme, loss rate, failed-edge fraction) cell of
// the resilience sweep. Every field is a pure function of the inputs
// and the seed — no wall-clock — so the JSON sweep is byte-reproducible.
type ChaosRecord struct {
	Scheme             string  `json:"scheme"`
	Graph              string  `json:"graph"`
	N                  int     `json:"n"`
	M                  int     `json:"m"`
	Eps                float64 `json:"eps"` // the ε the scheme was built at
	Seed               int64   `json:"seed"`
	Pairs              int     `json:"pairs"`
	Loss               float64 `json:"loss"`
	EdgeFailFrac       float64 `json:"edge_fail_frac"`
	FailedEdges        int     `json:"failed_edges"`
	MaxAttempts        int     `json:"max_attempts"`
	DeliveredNoRetry   int     `json:"delivered_no_retry"`
	DeliveredRetry     int     `json:"delivered_retry"`
	RateNoRetry        float64 `json:"delivery_rate_no_retry"`
	RateRetry          float64 `json:"delivery_rate_retry"`
	MeanAttempts       float64 `json:"mean_attempts"`
	TotalDrops         int     `json:"total_drops"`
	StretchFaultFree   float64 `json:"stretch_mean_fault_free"`
	StretchDelivered   float64 `json:"stretch_mean_delivered"`
	StretchDegradation float64 `json:"stretch_degradation"`
}

// chaosCohort is the resilience sweep's schemes in report order: the
// full-table baseline against the paper's labeled and name-independent
// schemes.
var chaosCohort = []string{
	"full-table",
	"simple-labeled",
	"scale-free-labeled",
	"name-independent",
	"scale-free-name-independent",
}

// chaosSchemes compiles the resilience cohort in parallel; the returned
// order is chaosCohort's.
func chaosSchemes(e *Env, eps float64, seed int64) ([]*schemes.Instance, error) {
	entries, err := schemes.Resolve(chaosCohort)
	if err != nil {
		return nil, err
	}
	return par.MapErr(len(entries), func(i int) (*schemes.Instance, error) {
		return entries[i].Build(e.G, e.A, eps, seed)
	})
}

// failedEdges deterministically selects floor(frac * M) edges and takes
// them down permanently from virtual time 0 (edge deletion).
func failedEdges(g *graph.Graph, frac float64, seed int64) []faultsim.EdgeOutage {
	if frac <= 0 {
		return nil
	}
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				edges = append(edges, [2]int{u, e.To})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	k := int(frac * float64(len(edges)))
	out := make([]faultsim.EdgeOutage, 0, k)
	for _, e := range edges[:k] {
		out = append(out, faultsim.EdgeOutage{U: e[0], V: e[1]})
	}
	return out
}

// ChaosSweep runs the resilience experiment: for every scheme and every
// (loss rate, failed-edge fraction) cell it routes the sampled pairs
// twice — single-shot and with the retry policy — over the same fault
// draws, and reports delivery rates and the stretch of what still
// arrives relative to the scheme's fault-free stretch.
func ChaosSweep(e *Env, cfg ChaosConfig, eps float64, pairCount int, seed int64) ([]ChaosRecord, error) {
	pairs := e.Pairs(pairCount, seed)
	cohort, err := chaosSchemes(e, eps, seed)
	if err != nil {
		return nil, err
	}
	runAll := func(sc *schemes.Instance, in *faultsim.Injector, rel faultsim.Reliability) []faultsim.Result {
		out := make([]faultsim.Result, len(pairs))
		for i, p := range pairs {
			out[i] = sc.Deliver(p[0], p[1], in, rel, uint64(i), nil)
		}
		return out
	}
	meanStretch := func(results []faultsim.Result) float64 {
		sum, n := 0.0, 0
		for i, r := range results {
			if !r.Delivered {
				continue
			}
			opt := e.A.Dist(pairs[i][0], pairs[i][1])
			if opt == 0 {
				continue
			}
			sum += r.Sim.Cost / opt
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	// Fault-free baselines, one per scheme, in parallel.
	baselines := par.Map(len(cohort), func(si int) float64 {
		return meanStretch(runAll(cohort[si], faultsim.NewInjector(faultsim.FaultPlan{}), faultsim.Reliability{}))
	})
	// Every (scheme, failed-edge fraction, loss rate) cell owns its
	// injector and fault draws (a pure hash of seed/delivery/attempt/
	// hop), so the cells run in parallel and the ordered Map keeps the
	// record order — and every value — identical to the serial triple
	// loop this replaces; `make check` double-run-diffs the JSON.
	nCells := len(cfg.FailFracs) * len(cfg.LossRates)
	out := par.Map(len(cohort)*nCells, func(cell int) ChaosRecord {
		si := cell / nCells
		fi := (cell % nCells) / len(cfg.LossRates)
		li := cell % len(cfg.LossRates)
		sc, frac, loss := cohort[si], cfg.FailFracs[fi], cfg.LossRates[li]
		baseStretch := baselines[si]
		outages := failedEdges(e.G, frac, seed+int64(fi))
		plan := faultsim.FaultPlan{
			Seed:        seed + int64(1000*fi+li),
			Loss:        loss,
			HopLatency:  cfg.HopLatency,
			EdgeOutages: outages,
		}
		in := faultsim.NewInjector(plan)
		once := runAll(sc, in, faultsim.Reliability{MaxAttempts: 1})
		retried := runAll(sc, in, cfg.Rel)
		rec := ChaosRecord{
			Scheme:           sc.Entry.Name(),
			Graph:            e.Name,
			N:                e.G.N(),
			M:                e.G.M(),
			Eps:              sc.Entry.Eps(eps),
			Seed:             seed,
			Pairs:            len(pairs),
			Loss:             loss,
			EdgeFailFrac:     frac,
			FailedEdges:      len(outages),
			MaxAttempts:      cfg.Rel.MaxAttempts,
			StretchFaultFree: baseStretch,
		}
		var attempts, drops int
		for i := range retried {
			if once[i].Delivered {
				rec.DeliveredNoRetry++
			}
			if retried[i].Delivered {
				rec.DeliveredRetry++
			}
			attempts += retried[i].Attempts
			drops += retried[i].Drops
		}
		rec.RateNoRetry = float64(rec.DeliveredNoRetry) / float64(len(pairs))
		rec.RateRetry = float64(rec.DeliveredRetry) / float64(len(pairs))
		rec.MeanAttempts = float64(attempts) / float64(len(pairs))
		rec.TotalDrops = drops
		rec.StretchDelivered = meanStretch(retried)
		if baseStretch > 0 && rec.StretchDelivered > 0 {
			rec.StretchDegradation = rec.StretchDelivered / baseStretch
		}
		return rec
	})
	return out, nil
}

// Resilience prints the sweep as aligned tables, one block per scheme:
// how delivery rate and stretch degrade as links get lossy and edges
// fail, and how much the retry layer claws back.
func Resilience(w io.Writer, e *Env, cfg ChaosConfig, eps float64, pairCount int, seed int64) error {
	records, err := ChaosSweep(e, cfg, eps, pairCount, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Resilience under injected faults — %s, eps=%v, %d pairs, retry policy: %d attempts\n",
		e.Name, eps, records[0].Pairs, cfg.Rel.MaxAttempts)
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tloss\tedges down\tdelivered (1 try)\tdelivered (retry)\tmean attempts\tstretch (delivered)\tdegradation")
	last := ""
	for _, r := range records {
		name := r.Scheme
		if name == last {
			name = ""
		} else if last != "" {
			fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
		}
		last = r.Scheme
		fmt.Fprintf(tw, "%s\t%.2f\t%d (%.0f%%)\t%.1f%%\t%.1f%%\t%.2f\t%.3f\t%.3fx\n",
			name, r.Loss, r.FailedEdges, 100*r.EdgeFailFrac,
			100*r.RateNoRetry, 100*r.RateRetry, r.MeanAttempts,
			r.StretchDelivered, r.StretchDegradation)
	}
	return tw.Flush()
}

// WriteChaosJSON runs ChaosSweep and writes the records as an indented
// JSON array. The output is a pure function of (env, cfg, eps, pairs,
// seed): running it twice must produce byte-identical files, which
// `make check` asserts.
func WriteChaosJSON(w io.Writer, e *Env, cfg ChaosConfig, eps float64, pairCount int, seed int64) error {
	records, err := ChaosSweep(e, cfg, eps, pairCount, seed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

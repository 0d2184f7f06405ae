package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"compactrouting/internal/core"
	"compactrouting/internal/par"
	"compactrouting/internal/schemes"
	"compactrouting/internal/trace"
)

// BenchRecord is one scheme's machine-readable benchmark row, written
// by cmd/routebench -json so runs can be tracked across commits.
type BenchRecord struct {
	Scheme        string  `json:"scheme"`
	Graph         string  `json:"graph"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Eps           float64 `json:"eps"` // the ε the scheme was built at
	Pairs         int     `json:"pairs"`
	StretchMean   float64 `json:"stretch_mean"`
	StretchP50    float64 `json:"stretch_p50"`
	StretchP95    float64 `json:"stretch_p95"`
	StretchP99    float64 `json:"stretch_p99"`
	StretchMax    float64 `json:"stretch_max"`
	MaxHeaderBits int     `json:"max_header_bits"`
	TableMaxBits  int     `json:"table_max_bits"`
	TableMeanBits float64 `json:"table_mean_bits"`
	// StretchHist is the stretch distribution over the shared
	// trace.StretchBucketEdges buckets (LE == -1 marks the overflow
	// bucket), so BENCH files capture the distribution, not just
	// percentiles.
	StretchHist []HistBucket `json:"stretch_hist"`
	// Phases is the per-phase detour decomposition (hops and cost spent
	// per scheme phase over all routed pairs); present only when the
	// sweep ran traced (BenchOpts.Trace).
	Phases []PhaseDecomp `json:"phases,omitempty"`
	// Build-phase wall times: ApspMS is the shared oracle build (phase
	// 1, identical on every row), BuildMS the scheme's table
	// compilation (phase 2), TotalMS their sum. All timing fields are
	// zero when BenchOpts.Timing is off.
	ApspMS     float64 `json:"apsp_ms"`
	BuildMS    float64 `json:"build_ms"`
	TotalMS    float64 `json:"total_ms"`
	NsPerQuery float64 `json:"ns_per_query"`
}

// BenchOpts parameterizes a bench sweep.
type BenchOpts struct {
	Eps   float64
	Pairs int
	Seed  int64
	// Timing records wall-clock fields (apsp_ms, build_ms, total_ms,
	// ns_per_query). With Timing false they are zeroed, which makes the
	// JSON a pure function of (env, opts) — the `make check` double-run
	// diff relies on that.
	Timing bool
	// ApspMS is the caller-measured oracle build time (the env carries
	// a prebuilt APSP, so only the caller saw that phase's clock).
	ApspMS float64
	// Trace routes the sweep through the schemes' traced walkers
	// (walk.RouteOnceTraced) instead of RouteToLabel/RouteToName and
	// adds the per-phase detour decomposition to every record. Both
	// walk the same step functions, so every other field is unchanged
	// (TestBenchTraceAgrees; full-table's header is the one documented
	// exception) — and with Timing off the traced JSON stays a pure
	// function of (env, opts), which the `make check` traced double-run
	// byte-diffs.
	Trace bool
}

// HistBucket is one stretch-histogram bucket: the count of routes with
// stretch <= LE (and above the previous edge). LE == -1 marks the
// overflow bucket past the last edge.
type HistBucket struct {
	LE    float64 `json:"le"`
	Count int     `json:"count"`
}

// histBuckets pairs StretchStats.Hist counts with the shared
// trace.StretchBucketEdges.
func histBuckets(hist []int) []HistBucket {
	out := make([]HistBucket, len(hist))
	for i, c := range hist {
		le := -1.0
		if i < len(trace.StretchBucketEdges) {
			le = trace.StretchBucketEdges[i]
		}
		out[i] = HistBucket{LE: le, Count: c}
	}
	return out
}

// PhaseDecomp is one phase's share of a traced sweep: how many hops
// and how much path cost the scheme spent in that phase across all
// routed pairs.
type PhaseDecomp struct {
	Phase string  `json:"phase"`
	Hops  int     `json:"hops"`
	Cost  float64 `json:"cost"`
}

// benchEval routes the sampled pairs and summarizes stretch; traced
// sweeps additionally return the per-phase decomposition (nil
// otherwise).
type benchEval func() (core.StretchStats, []PhaseDecomp, error)

// sequentialEval routes every pair through the scheme's RouteToLabel or
// RouteToName.
func sequentialEval(e *Env, inst *schemes.Instance, pairs [][2]int) benchEval {
	return func() (core.StretchStats, []PhaseDecomp, error) {
		st, err := core.Evaluate(inst.Route, e.A, pairs)
		return st, nil, err
	}
}

// tracedEval routes every pair through the scheme's walker with tracing
// enabled and folds the hop records into the per-phase decomposition.
// The walker drives the same step functions as RouteToLabel and
// RouteToName, so the walks — and hence every stretch field — are
// identical; Fallbacks counts routes with at least one fallback-phase
// hop.
func tracedEval(e *Env, inst *schemes.Instance, pairs [][2]int) benchEval {
	return func() (core.StretchStats, []PhaseDecomp, error) {
		stretches := make([]float64, 0, len(pairs))
		maxHdr, falls := 0, 0
		var hops [trace.NumPhases]int
		var cost [trace.NumPhases]float64
		tr := &trace.Trace{}
		for _, p := range pairs {
			res := inst.Traced(p[0], p[1], tr)
			if res.Err != nil {
				return core.StretchStats{}, nil, fmt.Errorf("route %d -> %d: %w", p[0], p[1], res.Err)
			}
			opt := e.A.Dist(p[0], p[1])
			s := 1.0
			if opt > 0 {
				s = res.Cost / opt
			}
			stretches = append(stretches, s)
			if res.MaxHeaderBits > maxHdr {
				maxHdr = res.MaxHeaderBits
			}
			fell := false
			for _, h := range tr.Hops {
				hops[h.Phase]++
				cost[h.Phase] += h.Dist
				if h.Phase == trace.PhaseFallback {
					fell = true
				}
			}
			if fell {
				falls++
			}
		}
		decomp := make([]PhaseDecomp, 0, trace.NumPhases)
		for ph := 0; ph < trace.NumPhases; ph++ {
			if hops[ph] == 0 {
				continue
			}
			decomp = append(decomp, PhaseDecomp{Phase: trace.Phase(ph).String(), Hops: hops[ph], Cost: cost[ph]})
		}
		return core.SummarizeStretches(stretches, maxHdr, falls), decomp, nil
	}
}

// Bench builds every registered scheme and routes the sampled pairs
// through it, returning one record per scheme in registry order with
// stretch percentiles and (when opt.Timing) per-phase wall clocks. With
// opt.Trace the pairs run through the scheme's walker with tracing on
// (tracedEval); otherwise through RouteToLabel/RouteToName. The scheme
// cells run in parallel; record order and every non-timing field are
// identical to a serial run (asserted by the `make check` double-run
// diff).
func Bench(e *Env, opt BenchOpts) ([]BenchRecord, error) {
	pairs := e.Pairs(opt.Pairs, opt.Seed)
	entries := schemes.All()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return par.MapErr(len(entries), func(i int) (BenchRecord, error) {
		// The wall-clock reads below feed the *_ms timing fields only,
		// which opt.Timing gates out of the deterministic JSON contract
		// (the `make check` double-run diff passes -timing=false).
		start := time.Now() //determinlint:allow wallclock build_ms is a timing-only field gated by opt.Timing
		inst, err := entries[i].Build(e.G, e.A, opt.Eps, opt.Seed)
		if err != nil {
			return BenchRecord{}, err
		}
		eval := sequentialEval(e, inst, pairs)
		if opt.Trace {
			eval = tracedEval(e, inst, pairs)
		}
		buildMS := ms(time.Since(start)) //determinlint:allow wallclock build_ms is a timing-only field gated by opt.Timing
		start = time.Now()               //determinlint:allow wallclock route_ms is a timing-only field gated by opt.Timing
		st, decomp, err := eval()
		if err != nil {
			return BenchRecord{}, err
		}
		elapsed := time.Since(start) //determinlint:allow wallclock route_ms is a timing-only field gated by opt.Timing
		tb := core.Tables(inst.TableBits, e.G.N())
		rec := BenchRecord{
			Scheme:        entries[i].Name(),
			Graph:         e.Name,
			N:             e.G.N(),
			M:             e.G.M(),
			Eps:           entries[i].Eps(opt.Eps),
			Pairs:         len(pairs),
			StretchMean:   st.Mean,
			StretchP50:    st.P50,
			StretchP95:    st.P95,
			StretchP99:    st.P99,
			StretchMax:    st.Max,
			MaxHeaderBits: st.MaxHeader,
			TableMaxBits:  tb.MaxBits,
			TableMeanBits: tb.MeanBits,
			StretchHist:   histBuckets(st.Hist),
			Phases:        decomp,
		}
		if opt.Timing {
			rec.ApspMS = opt.ApspMS
			rec.BuildMS = buildMS
			rec.TotalMS = opt.ApspMS + buildMS
			rec.NsPerQuery = float64(elapsed.Nanoseconds()) / float64(len(pairs))
		}
		return rec, nil
	})
}

// WriteBenchJSON runs Bench and writes the records as an indented JSON
// array.
func WriteBenchJSON(w io.Writer, e *Env, opt BenchOpts) error {
	records, err := Bench(e, opt)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

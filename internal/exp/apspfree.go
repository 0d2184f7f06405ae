package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/tz"
)

// This file implements E16, the APSP-free scaling family
// (BENCH_apspfree.json): a reproduction of the Krioukov–Fall–Yang
// stretch-CDF experiment ("Compact routing on Internet-like graphs",
// INFOCOM 2004) on power-law graphs, except the tables are compiled on
// the lazy distance backend, so sizes run past the dense backend's n²
// memory wall. Each record carries the full stretch distribution over
// the shared trace.StretchBucketEdges buckets plus the KFY headline
// number — the fraction of routes at stretch exactly 1.
//
// At sizes where the dense matrix still fits (Opts.DenseMaxN), the
// family additionally builds the same scheme on the dense backend and
// errors unless both backends produced identical stretch and table
// statistics — the committed artifact is self-checking — and adds a
// Thorup–Zwick stretch-3 comparison row (KFY's subject scheme), which
// needs dense-style sampling and therefore stops at the wall.

// APSPFreeRecord is one (size, scheme, backend) row of the E16 sweep.
type APSPFreeRecord struct {
	Scheme  string  `json:"scheme"`
	Backend string  `json:"backend"`
	Graph   string  `json:"graph"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Eps     float64 `json:"eps"`
	Pairs   int     `json:"pairs"`
	// StretchLE1Frac is the KFY headline: the fraction of routed pairs
	// at stretch exactly 1 (first histogram bucket).
	StretchLE1Frac float64      `json:"stretch_le1_frac"`
	StretchMean    float64      `json:"stretch_mean"`
	StretchP50     float64      `json:"stretch_p50"`
	StretchP95     float64      `json:"stretch_p95"`
	StretchP99     float64      `json:"stretch_p99"`
	StretchMax     float64      `json:"stretch_max"`
	StretchHist    []HistBucket `json:"stretch_hist"`
	MaxHeaderBits  int          `json:"max_header_bits"`
	TableMaxBits   int          `json:"table_max_bits"`
	TableMeanBits  float64      `json:"table_mean_bits"`
	// RingFactor is the ring radius multiplier the labeled rows were
	// built with; 0 on the TZ rows, which have no rings.
	RingFactor float64 `json:"ring_factor"`
	// BoundEnforced reports whether the sweep asserted the scheme's
	// stretch bound (StretchBound) on this row's routes. It does at ring
	// factors >= 2; below 2 the analysed bound is weak or infinite, so
	// the row measures stretch without a guarantee.
	BoundEnforced bool `json:"bound_enforced"`
	// CachedEntries is the lazy backend's resident row-cache size
	// (settled entries, ~35 bytes each) after build+sweep — the number
	// that replaces n² in the memory story. Zero on dense rows. It is a
	// pure function of the flags (the cache transcript is
	// deterministic), so it survives the double-run byte-diff.
	CachedEntries int `json:"cached_entries,omitempty"`
	// BuildMS is the scheme build wall time; zero unless Opts.Timing.
	BuildMS float64 `json:"build_ms,omitempty"`
}

// APSPFreeOpts parameterizes the E16 sweep.
type APSPFreeOpts struct {
	// Sizes lists the power-law graph sizes, ascending. Nil selects the
	// committed artifact's ladder up to 100k.
	Sizes []int
	// DenseMaxN bounds the sizes that also build the dense backend (the
	// byte-equality cross-check and the TZ comparison row). <= 0
	// selects 4096; the n² matrix at 100k would be 80 GB.
	DenseMaxN int
	// Eps is the scheme stretch parameter (clamped to the Simple
	// scheme's 0.5 ceiling). <= 0 selects 0.5.
	Eps float64
	// RingFactor scales ring radii (labeled.NewSimpleRingFactor).
	// Power-law metrics are far from doubling, so the default factor 2
	// would put whole-graph balls around every mid-level center; <= 0
	// selects 1, which keeps tables bounded at Internet scale but
	// weakens the stretch bound to none at eps 0.5. Every record says
	// which factor it ran at, and the stretch bound is asserted only
	// at factors >= 2.
	RingFactor float64
	// MaxW is the log-uniform edge-weight ceiling for graph.PowerLaw.
	// Spread weights pull the distance scales apart (the hierarchy gets
	// more, smaller levels); <= 0 selects 1024.
	MaxW float64
	// Pairs is the routed sample size per record; <= 0 selects 2000.
	Pairs int
	Seed  int64
	// Timing records build_ms; false keeps the JSON a pure function of
	// the options (the determinism double-run relies on that).
	Timing bool
}

func (o *APSPFreeOpts) setDefaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1024, 4096, 16384, 100000}
	}
	if o.DenseMaxN <= 0 {
		o.DenseMaxN = 4096
	}
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
	if o.RingFactor <= 0 {
		o.RingFactor = 1
	}
	if o.MaxW <= 0 {
		o.MaxW = 1024
	}
	if o.Pairs <= 0 {
		o.Pairs = 2000
	}
}

// apspFreeRecord folds one evaluated scheme into a record.
func apspFreeRecord(scheme, backend, name string, g *graph.Graph, eps float64, st core.StretchStats, tb core.TableStats) APSPFreeRecord {
	le1 := 0.0
	if st.Count > 0 && len(st.Hist) > 0 {
		le1 = float64(st.Hist[0]) / float64(st.Count)
	}
	return APSPFreeRecord{
		Scheme:         scheme,
		Backend:        backend,
		Graph:          name,
		N:              g.N(),
		M:              g.M(),
		Eps:            eps,
		Pairs:          st.Count,
		StretchLE1Frac: le1,
		StretchMean:    st.Mean,
		StretchP50:     st.P50,
		StretchP95:     st.P95,
		StretchP99:     st.P99,
		StretchMax:     st.Max,
		StretchHist:    histBuckets(st.Hist),
		MaxHeaderBits:  st.MaxHeader,
		TableMaxBits:   tb.MaxBits,
		TableMeanBits:  tb.MeanBits,
	}
}

// APSPFree runs the E16 sweep and returns one record per (size,
// scheme, backend) cell.
func APSPFree(opt APSPFreeOpts) ([]APSPFreeRecord, error) {
	opt.setDefaults()
	eps, err := capEps("simple-labeled", opt.Eps)
	if err != nil {
		return nil, err
	}
	enforced := opt.RingFactor >= 2
	var records []APSPFreeRecord
	for _, n := range opt.Sizes {
		g, err := graph.PowerLaw(n, 2, opt.MaxW, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("apspfree n=%d: %w", n, err)
		}
		name := fmt.Sprintf("power-law n=%d maxW=%v", n, opt.MaxW)
		pairs := core.SamplePairs(g.N(), opt.Pairs, opt.Seed)

		buildSimple := func(a metric.Distancer) (core.StretchStats, core.TableStats, float64, error) {
			start := time.Now() //determinlint:allow wallclock build_ms is a timing-only field gated by opt.Timing
			s, err := labeled.NewSimpleRingFactor(g, a, eps, opt.RingFactor)
			if err != nil {
				return core.StretchStats{}, core.TableStats{}, 0, err
			}
			buildMS := float64(time.Since(start).Microseconds()) / 1000 //determinlint:allow wallclock build_ms is a timing-only field gated by opt.Timing
			st, err := core.EvaluateLabeled(s, a, pairs)
			if err != nil {
				return core.StretchStats{}, core.TableStats{}, 0, err
			}
			if enforced && st.Max > s.StretchBound() {
				return core.StretchStats{}, core.TableStats{}, 0, fmt.Errorf("stretch max %v exceeds the bound %v at ring factor %v",
					st.Max, s.StretchBound(), opt.RingFactor)
			}
			return st, core.Tables(s.TableBits, g.N()), buildMS, nil
		}
		labeledRecord := func(backend string, st core.StretchStats, tb core.TableStats) APSPFreeRecord {
			rec := apspFreeRecord("simple-labeled", backend, name, g, eps, st, tb)
			rec.RingFactor, rec.BoundEnforced = opt.RingFactor, enforced
			return rec
		}

		lazy := metric.NewLazyOracle(g)
		st, tb, buildMS, err := buildSimple(lazy)
		if err != nil {
			return nil, fmt.Errorf("apspfree n=%d lazy: %w", n, err)
		}
		rec := labeledRecord("lazy", st, tb)
		rec.CachedEntries = lazy.CachedEntries()
		if opt.Timing {
			rec.BuildMS = buildMS
		}
		records = append(records, rec)

		if n > opt.DenseMaxN {
			continue
		}
		dense := metric.NewAPSP(g)
		dst, dtb, dBuildMS, err := buildSimple(dense)
		if err != nil {
			return nil, fmt.Errorf("apspfree n=%d dense: %w", n, err)
		}
		drec := labeledRecord("dense", dst, dtb)
		if opt.Timing {
			drec.BuildMS = dBuildMS
		}
		// The two backends must be byte-equivalent; a drift here means a
		// scheme build observed a query the equivalence suite missed.
		//determinlint:allow floateq deliberate exact compare: dense and lazy records must agree bit for bit, any tolerance would mask backend divergence
		if rec.StretchMean != drec.StretchMean || rec.StretchMax != drec.StretchMax ||
			//determinlint:allow floateq deliberate exact compare: dense and lazy records must agree bit for bit, any tolerance would mask backend divergence
			rec.TableMeanBits != drec.TableMeanBits || rec.TableMaxBits != drec.TableMaxBits ||
			rec.MaxHeaderBits != drec.MaxHeaderBits {
			return nil, fmt.Errorf("apspfree n=%d: dense and lazy backends disagree (lazy %+v, dense %+v)", n, rec, drec)
		}
		records = append(records, drec)

		start := time.Now() //determinlint:allow wallclock build_ms is a timing-only field gated by opt.Timing
		tzs, err := tz.New(g, dense, 1, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("apspfree n=%d tz: %w", n, err)
		}
		tzBuildMS := float64(time.Since(start).Microseconds()) / 1000 //determinlint:allow wallclock build_ms is a timing-only field gated by opt.Timing
		tst, err := core.EvaluateLabeled(tzs, dense, pairs)
		if err != nil {
			return nil, fmt.Errorf("apspfree n=%d tz: %w", n, err)
		}
		trec := apspFreeRecord(tzs.SchemeName(), "dense", name, g, eps, tst, core.Tables(tzs.TableBits, g.N()))
		if opt.Timing {
			trec.BuildMS = tzBuildMS
		}
		records = append(records, trec)
	}
	return records, nil
}

// WriteAPSPFreeJSON runs APSPFree and writes the records as an
// indented JSON array.
func WriteAPSPFreeJSON(w io.Writer, opt APSPFreeOpts) error {
	records, err := APSPFree(opt)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

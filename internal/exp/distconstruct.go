package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"compactrouting/internal/dist"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
)

// DistOpts parameterizes the distributed-construction experiment (E14).
type DistOpts struct {
	// Eps is the Simple scheme's stretch parameter.
	Eps float64
	// Pairs is the routed sample size per record (0 = all pairs).
	Pairs int
	// Seed keys pair sampling and the optional fault plan.
	Seed int64
	// Schemes selects what to build: any of "tree", "simple".
	Schemes []string
	// MaxMsgBits is the CONGEST message bound (0 = engine default).
	MaxMsgBits int
	// Loss, when positive, runs construction over a lossy link layer
	// with this per-transmission drop probability.
	Loss float64
}

// DistRecord is one (env, scheme) cell of the experiment: the
// construction cost next to the quality of what it built, plus the
// oracle-equality verdict that backs the "same tables, no oracle"
// claim.
type DistRecord struct {
	Graph  string  `json:"graph"`
	N      int     `json:"n"`
	M      int     `json:"m"`
	Scheme string  `json:"scheme"`
	Eps    float64 `json:"eps,omitempty"`
	Loss   float64 `json:"loss"`

	// Construction cost, from the engine's counters.
	Construction dist.Counters `json:"construction"`

	// What the protocol built.
	TableTotalBits int64   `json:"table_total_bits"`
	TableMaxBits   int     `json:"table_max_bits"`
	TableMeanBits  float64 `json:"table_mean_bits"`
	TopLevel       int     `json:"top_level,omitempty"`

	// OracleEqual reports whether the protocol's output is identical to
	// the oracle compiler's (byte-level for simple tables, structural
	// for the tree scheme).
	OracleEqual bool `json:"oracle_equal"`

	// Routed-sample quality over the protocol-built tables.
	Pairs       int     `json:"pairs"`
	StretchMean float64 `json:"stretch_mean"`
	StretchMax  float64 `json:"stretch_max"`
}

// DistConstruct runs the selected distributed constructions on env and
// measures cost, output size, oracle equality and routed stretch.
func DistConstruct(e *Env, opt DistOpts) ([]DistRecord, error) {
	cfg := dist.Config{MaxMsgBits: opt.MaxMsgBits}
	if opt.Loss > 0 {
		cfg.Plan = &faultsim.FaultPlan{Seed: opt.Seed, Loss: opt.Loss}
	}
	pairs := e.Pairs(opt.Pairs, opt.Seed)
	var out []DistRecord
	for _, scheme := range opt.Schemes {
		rec := DistRecord{
			Graph: e.Name, N: e.G.N(), M: e.G.M(), Scheme: scheme,
			Loss: opt.Loss, Pairs: len(pairs),
		}
		var err error
		switch scheme {
		case "tree":
			err = distTreeRecord(e, cfg, pairs, &rec)
		case "simple":
			rec.Eps = opt.Eps
			err = distSimpleRecord(e, cfg, opt.Eps, pairs, &rec)
		default:
			err = fmt.Errorf("unknown scheme %q (want tree|simple)", scheme)
		}
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", scheme, e.Name, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// DistSweep runs DistConstruct on the kind row of the graph-family
// table at each size — nil sizes select 64, 256 and 1024 — with every
// env built on the dense backend from opt.Seed.
func DistSweep(kind string, sizes []int, opt DistOpts) ([]DistRecord, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 256, 1024}
	}
	var records []DistRecord
	for _, n := range sizes {
		env, err := NewEnv(kind, n, opt.Seed, "")
		if err != nil {
			return nil, err
		}
		recs, err := DistConstruct(env, opt)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
	}
	return records, nil
}

// distTreeRecord builds the shortest-path-tree substrate in-network and
// routes the sample over the resulting tree scheme.
func distTreeRecord(e *Env, cfg dist.Config, pairs [][2]int, rec *DistRecord) error {
	res, err := dist.BuildTree(e.G, 0, cfg)
	if err != nil {
		return err
	}
	rec.Construction = res.Counters
	for v := 0; v < e.G.N(); v++ {
		b := res.Scheme.TableBits(v)
		rec.TableTotalBits += int64(b)
		if b > rec.TableMaxBits {
			rec.TableMaxBits = b
		}
	}
	rec.TableMeanBits = float64(rec.TableTotalBits) / float64(e.G.N())
	oracle, err := treeroute.New(metric.Dijkstra(e.G, 0).Parent, 0)
	if err != nil {
		return err
	}
	rec.OracleEqual = true
	for v := 0; v < e.G.N(); v++ {
		want, _ := oracle.Info(v)
		if !reflect.DeepEqual(res.Info[v], want) {
			rec.OracleEqual = false
			break
		}
	}
	var sum, max float64
	for _, pr := range pairs {
		path, err := res.Scheme.Route(pr[0], res.Scheme.Label(pr[1]))
		if err != nil {
			return err
		}
		var w float64
		for i := 1; i < len(path); i++ {
			ew, ok := e.G.EdgeWeight(path[i-1], path[i])
			if !ok {
				return fmt.Errorf("route hops over missing edge %d-%d", path[i-1], path[i])
			}
			w += ew
		}
		s := 1.0
		if d := e.A.Dist(pr[0], pr[1]); d > 0 {
			s = w / d
		}
		sum += s
		if s > max {
			max = s
		}
	}
	if len(pairs) > 0 {
		rec.StretchMean = sum / float64(len(pairs))
		rec.StretchMax = max
	}
	return nil
}

// distSimpleRecord builds the labeled Simple scheme in-network,
// byte-compares its tables against the oracle compiler's, and routes
// the sample through the decoded tables alone.
func distSimpleRecord(e *Env, cfg dist.Config, eps float64, pairs [][2]int, rec *DistRecord) error {
	res, err := dist.BuildSimple(e.G, eps, cfg)
	if err != nil {
		return err
	}
	rec.Construction = res.Counters
	rec.TopLevel = res.TopLevel
	for v := 0; v < e.G.N(); v++ {
		b := res.TableBits[v]
		rec.TableTotalBits += int64(b)
		if b > rec.TableMaxBits {
			rec.TableMaxBits = b
		}
	}
	rec.TableMeanBits = float64(rec.TableTotalBits) / float64(e.G.N())
	oracle, err := labeled.NewSimple(e.G, e.A, eps)
	if err != nil {
		return err
	}
	rec.OracleEqual = true
	for v := 0; v < e.G.N(); v++ {
		wantB, wantN := oracle.EncodeTable(v)
		if res.TableBits[v] != wantN || !bytes.Equal(res.Tables[v], wantB) {
			rec.OracleEqual = false
			break
		}
	}
	dec, err := labeled.DecodeSimple(e.G, res.Tables, res.TableBits)
	if err != nil {
		return err
	}
	var sum, max float64
	for _, pr := range pairs {
		rt, err := dec.RouteToLabel(pr[0], int(res.Labels[pr[1]]))
		if err != nil {
			return err
		}
		s := rt.Stretch(e.A.Dist(pr[0], pr[1]))
		sum += s
		if s > max {
			max = s
		}
	}
	if len(pairs) > 0 {
		rec.StretchMean = sum / float64(len(pairs))
		rec.StretchMax = max
	}
	return nil
}

// DistReport prints the experiment as an aligned text table.
func DistReport(w io.Writer, records []DistRecord) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "graph\tscheme\tn\trounds\tmsgs\ttotal Mbit\tmax msg\tdrops\ttbl mean\ttbl max\tstretch max\toracle")
	for _, r := range records {
		eq := "equal"
		if !r.OracleEqual {
			eq = "DIFFERS"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.3f\t%d\t%d\t%.0f\t%d\t%.3f\t%s\n",
			r.Graph, r.Scheme, r.N, r.Construction.Rounds, r.Construction.Messages,
			float64(r.Construction.TotalBits)/1e6, r.Construction.MaxMsgBits,
			r.Construction.Drops, r.TableMeanBits, r.TableMaxBits, r.StretchMax, eq)
	}
	return tw.Flush()
}

// WriteDistJSON writes the records as indented JSON.
func WriteDistJSON(w io.Writer, records []DistRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

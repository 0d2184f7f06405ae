package server

import (
	"fmt"
	"runtime"

	"compactrouting/internal/bits"
	"compactrouting/internal/metric"
	"compactrouting/internal/snapshot"
)

// Snapshot serializes the engine's current serving state — graph,
// oracle, and every compiled scheme's tables — into a snapshot.File.
// The write is taken against one atomic state load, so a concurrent
// reload cannot tear it. On the dense backend the APSP matrices ride
// along so the restore skips every Dijkstra; on the lazy backend the
// snapshot records only the backend name — its oracle is an on-demand
// cache with nothing durable to store, and the restore rebinds an
// empty one (the scheme tables, the expensive part, are in the blobs).
func (e *Engine) Snapshot() (*snapshot.File, error) {
	st := e.st.Load()
	f := &snapshot.File{
		Seed:       st.seed,
		Eps:        e.cfg.Eps,
		Backend:    string(st.nw.Backend()),
		Generation: st.gen,
		N:          st.nw.N(),
		Edges:      st.nw.Edges(),
	}
	if a, ok := st.nw.Distancer().(*metric.APSP); ok {
		f.Dist, f.NextHop = a.Matrices()
	}
	for i, name := range st.order {
		w := &bits.Writer{}
		if err := snapshot.EncodeScheme(w, name, st.list[i].impl); err != nil {
			return nil, err
		}
		f.Schemes = append(f.Schemes, snapshot.SchemeBlob{
			Name: name,
			Data: append([]byte(nil), w.Bytes()...),
			Bits: w.Len(),
		})
	}
	return f, nil
}

// NewFromSnapshot builds an engine from a decoded snapshot: the graph
// and oracle are rebound, every scheme is restored through its codec,
// and the first query is served without invoking a single scheme
// constructor (pinned by TestSnapshotColdStartNoConstructors against
// core.SchemeBuilds). cfg.Build is optional here — it is only needed
// if the engine should support /reload, which rebuilds from scratch.
func NewFromSnapshot(cfg Config, f *snapshot.File) (*Engine, error) {
	if len(f.Schemes) == 0 {
		return nil, fmt.Errorf("server: snapshot holds no schemes")
	}
	cfg.Seed = f.Seed
	cfg.Eps = f.Eps
	cfg.Schemes = make([]string, len(f.Schemes))
	for i, sb := range f.Schemes {
		cfg.Schemes[i] = sb.Name
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hopCap := cfg.TraceHopCap
	if hopCap == 0 {
		hopCap = DefaultTraceHopCap
	}
	e := newEngine(cfg, workers, hopCap)
	nw, err := f.Network()
	if err != nil {
		return nil, err
	}
	st := newState(nw, f.Seed, f.Generation)
	for _, sb := range f.Schemes {
		r := bits.NewReader(sb.Data, sb.Bits)
		impl, err := snapshot.DecodeScheme(r, sb.Name, nw.Graph(), nw.Distancer())
		if err != nil {
			return nil, fmt.Errorf("server: restore %s: %w", sb.Name, err)
		}
		if rem := r.Remaining(); rem != 0 {
			return nil, fmt.Errorf("server: restore %s: %d trailing blob bits", sb.Name, rem)
		}
		sch, err := finishScheme(sb.Name, impl, nw.Graph(), e.chaos, 0)
		if err != nil {
			return nil, fmt.Errorf("server: restore %s: %w", sb.Name, err)
		}
		st.add(sb.Name, sch)
	}
	e.st.Store(st)
	return e, nil
}

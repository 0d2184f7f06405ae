// Package schemes is the scheme registry: one table entry per routing
// scheme, holding everything the rest of the repository needs to build,
// snapshot, restore and walk it. The server, the experiments, the
// snapshot codec and cmd/routesim look schemes up here instead of
// switching on their names, so adding a scheme means adding one entry
// to the table (see DESIGN.md §Scheme registry).
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package schemes

import (
	"fmt"

	"compactrouting/internal/baseline"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/walk"
)

// The scheme kinds, as reported by GET /schemes.
const (
	Labeled         = "labeled"
	NameIndependent = "name-independent"
	Baseline        = "baseline"
)

// table is the registry, in report order. Each name-independent entry
// embeds its underlying labeled scheme in its snapshot blob, so one
// blob restores the whole stack.
var table = []Entry{
	&spec[*labeled.Simple, labeled.SimpleHeader]{
		name: "simple-labeled", kind: Labeled, epsCap: 0.5,
		build: func(g *graph.Graph, a metric.Distancer, eps float64, _ int64) (*labeled.Simple, error) {
			return labeled.NewSimple(g, a, eps)
		},
		encode: func(w *bits.Writer, s *labeled.Simple) error { s.EncodeSnapshot(w); return nil },
		decode: labeled.RestoreSimple,
		addr:   (*labeled.Simple).LabelOf,
		route:  (*labeled.Simple).RouteToLabel,
	},
	&spec[*labeled.ScaleFree, labeled.SFHeader]{
		name: "scale-free-labeled", kind: Labeled, epsCap: 0.25, hopsPerNode: 64,
		build: func(g *graph.Graph, a metric.Distancer, eps float64, _ int64) (*labeled.ScaleFree, error) {
			return labeled.NewScaleFree(g, a, eps)
		},
		encode: func(w *bits.Writer, s *labeled.ScaleFree) error { s.EncodeSnapshot(w); return nil },
		decode: labeled.RestoreScaleFree,
		addr:   (*labeled.ScaleFree).LabelOf,
		route:  (*labeled.ScaleFree).RouteToLabel,
	},
	&spec[*nameind.Simple, nameind.NIHeader]{
		name: "name-independent", kind: NameIndependent, epsCap: 1.0 / 3, hopsPerNode: nameind.SimpleHopsPerNode,
		build: func(g *graph.Graph, a metric.Distancer, eps float64, namingSeed int64) (*nameind.Simple, error) {
			under, err := labeled.NewSimple(g, a, eps)
			if err != nil {
				return nil, err
			}
			return nameind.NewSimple(g, a, nameind.RandomNaming(g.N(), namingSeed), under, eps)
		},
		encode: func(w *bits.Writer, s *nameind.Simple) error {
			under, ok := s.UnderlyingScheme().(*labeled.Simple)
			if !ok {
				return fmt.Errorf("schemes: name-independent built on %T, want *labeled.Simple", s.UnderlyingScheme())
			}
			under.EncodeSnapshot(w)
			s.EncodeSnapshot(w)
			return nil
		},
		decode: func(r *bits.Reader, g *graph.Graph, a metric.Distancer) (*nameind.Simple, error) {
			under, err := labeled.RestoreSimple(r, g, a)
			if err != nil {
				return nil, err
			}
			return nameind.RestoreSimple(r, g, a, under)
		},
		addr:  (*nameind.Simple).NameOf,
		route: (*nameind.Simple).RouteToName,
	},
	&spec[*nameind.ScaleFree, nameind.SFNIHeader]{
		name: "scale-free-name-independent", kind: NameIndependent, epsCap: 0.25, hopsPerNode: nameind.ScaleFreeHopsPerNode,
		build: func(g *graph.Graph, a metric.Distancer, eps float64, namingSeed int64) (*nameind.ScaleFree, error) {
			under, err := labeled.NewScaleFree(g, a, eps)
			if err != nil {
				return nil, err
			}
			return nameind.NewScaleFree(g, a, nameind.RandomNaming(g.N(), namingSeed), under, eps)
		},
		encode: func(w *bits.Writer, s *nameind.ScaleFree) error {
			under, ok := s.UnderlyingScheme().(*labeled.ScaleFree)
			if !ok {
				return fmt.Errorf("schemes: scale-free-name-independent built on %T, want *labeled.ScaleFree", s.UnderlyingScheme())
			}
			under.EncodeSnapshot(w)
			s.EncodeSnapshot(w)
			return nil
		},
		decode: func(r *bits.Reader, g *graph.Graph, a metric.Distancer) (*nameind.ScaleFree, error) {
			under, err := labeled.RestoreScaleFree(r, g, a)
			if err != nil {
				return nil, err
			}
			return nameind.RestoreScaleFree(r, g, a, under)
		},
		addr:  (*nameind.ScaleFree).NameOf,
		route: (*nameind.ScaleFree).RouteToName,
	},
	&spec[*baseline.FullTable, baseline.Destination]{
		name: "full-table", kind: Baseline,
		build: func(g *graph.Graph, a metric.Distancer, _ float64, _ int64) (*baseline.FullTable, error) {
			return baseline.NewFullTable(g, a), nil
		},
		encode: func(w *bits.Writer, s *baseline.FullTable) error { s.EncodeSnapshot(w); return nil },
		decode: func(_ *bits.Reader, g *graph.Graph, a metric.Distancer) (*baseline.FullTable, error) {
			return baseline.RestoreFullTable(g, a), nil
		},
		addr:  (*baseline.FullTable).LabelOf,
		route: (*baseline.FullTable).RouteToLabel,
	},
	&spec[*baseline.SingleTree, baseline.TreeHeader]{
		name: "single-tree", kind: Baseline,
		build: func(g *graph.Graph, _ metric.Distancer, _ float64, _ int64) (*baseline.SingleTree, error) {
			return baseline.NewSingleTree(g, 0)
		},
		encode: func(w *bits.Writer, s *baseline.SingleTree) error { s.EncodeSnapshot(w); return nil },
		decode: func(r *bits.Reader, g *graph.Graph, _ metric.Distancer) (*baseline.SingleTree, error) {
			return baseline.RestoreSingleTree(r, g)
		},
		addr:  (*baseline.SingleTree).LabelOf,
		route: (*baseline.SingleTree).RouteToLabel,
	},
}

// Entry is one scheme's row in the registry.
type Entry interface {
	// Name is the scheme's name on every surface: flags, the HTTP and
	// TCP APIs, snapshot blobs and BENCH rows.
	Name() string
	// Kind is Labeled, NameIndependent or Baseline.
	Kind() string
	// Build compiles the scheme over g and its metric and binds its
	// walker, with ε clamped to the largest value the scheme is
	// analysed for (its cap). namingSeed draws the name-independent schemes' original
	// names (nameind.RandomNaming); the other schemes ignore it.
	Build(g *graph.Graph, a metric.Distancer, eps float64, namingSeed int64) (*Instance, error)
	// Eps is the ε Build compiles at when asked for eps: eps clamped to
	// the entry's cap. Entries that take no ε return eps unchanged.
	Eps(eps float64) float64
	// Restore decodes a blob written by EncodeSnapshot against an
	// already-rebuilt graph and oracle and binds its walker. No counted
	// scheme constructor runs: every path goes through the Restore*
	// codecs.
	Restore(r *bits.Reader, g *graph.Graph, a metric.Distancer) (*Instance, error)
	// EncodeSnapshot writes impl, the concrete scheme an Instance of
	// this entry holds, as the entry's snapshot blob. A mismatched impl
	// fails before any bit is written.
	EncodeSnapshot(w *bits.Writer, impl any) error
}

// Names returns the registered scheme names in report order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.Name()
	}
	return out
}

// All returns the registry in report order.
func All() []Entry {
	return append([]Entry(nil), table...)
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, error) {
	for _, e := range table {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("unknown scheme %q (have %v)", name, Names())
}

// Resolve looks up every name, rejecting unknown and repeated ones.
func Resolve(names []string) ([]Entry, error) {
	out := make([]Entry, len(names))
	for i, name := range names {
		e, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, prev := range out[:i] {
			if prev == e {
				return nil, fmt.Errorf("scheme %q listed twice", name)
			}
		}
		out[i] = e
	}
	return out, nil
}

// impl is what every registered scheme provides beyond its step
// function.
type impl[H walk.Header] interface {
	walk.Router[H]
	TableBits(v int) int
	StretchBound() float64
}

// spec is one scheme written out with its concrete types: the Entry
// every table row is.
type spec[S impl[H], H walk.Header] struct {
	name, kind string
	// epsCap is the largest ε the scheme is analysed for; zero means
	// the scheme takes no ε.
	epsCap float64
	// hopsPerNode is the hop budget per node; 0 selects the walk's
	// default (8n).
	hopsPerNode int
	build       func(g *graph.Graph, a metric.Distancer, eps float64, namingSeed int64) (S, error)
	encode      func(w *bits.Writer, s S) error
	decode      func(r *bits.Reader, g *graph.Graph, a metric.Distancer) (S, error)
	// addr maps a node id to the address the scheme routes by: its
	// label, its original name, or the id itself.
	addr func(s S, v int) int
	// route is the scheme's RouteToLabel or RouteToName, taking an
	// address.
	route func(s S, src, addr int) (*core.Route, error)
}

func (sp *spec[S, H]) Name() string { return sp.name }
func (sp *spec[S, H]) Kind() string { return sp.kind }

func (sp *spec[S, H]) Eps(eps float64) float64 {
	if sp.epsCap > 0 && eps > sp.epsCap {
		return sp.epsCap
	}
	return eps
}

func (sp *spec[S, H]) Build(g *graph.Graph, a metric.Distancer, eps float64, namingSeed int64) (*Instance, error) {
	s, err := sp.build(g, a, sp.Eps(eps), namingSeed)
	if err != nil {
		return nil, err
	}
	return sp.bind(g, s), nil
}

func (sp *spec[S, H]) Restore(r *bits.Reader, g *graph.Graph, a metric.Distancer) (*Instance, error) {
	s, err := sp.decode(r, g, a)
	if err != nil {
		return nil, err
	}
	return sp.bind(g, s), nil
}

func (sp *spec[S, H]) EncodeSnapshot(w *bits.Writer, impl any) error {
	s, ok := impl.(S)
	if !ok {
		return fmt.Errorf("schemes: scheme %q has implementation %T", sp.name, impl)
	}
	return sp.encode(w, s)
}

// bind wraps a built or restored scheme into its Instance.
func (sp *spec[S, H]) bind(g *graph.Graph, s S) *Instance {
	n := g.N()
	addr := func(v int) int { return sp.addr(s, v) }
	// Labels and node ids take ceil(log n) bits; names take what the
	// largest one needs.
	labelBits := bits.UintBits(n)
	if sp.kind == NameIndependent {
		maxName := 0
		for v := 0; v < n; v++ {
			maxName = max(maxName, addr(v))
		}
		labelBits = bits.UintBits(maxName + 1)
	}
	return &Instance{
		Walker: &walker[H]{
			g:       g,
			r:       s,
			addr:    addr,
			seq:     func(src, a int) (*core.Route, error) { return sp.route(s, src, a) },
			maxHops: sp.hopsPerNode * n,
		},
		Entry:        sp,
		Impl:         s,
		LabelBits:    labelBits,
		TableBits:    s.TableBits,
		StretchBound: s.StretchBound(),
	}
}

// Instance is one built or restored scheme bound to its graph.
type Instance struct {
	// Walker routes over the scheme's step function.
	Walker
	// Entry is the registry row the instance came from.
	Entry Entry
	// Impl is the concrete scheme (e.g. *labeled.Simple), the value
	// Entry.EncodeSnapshot writes.
	Impl any
	// LabelBits is the size of a destination address: a label, an
	// original name or a node id.
	LabelBits int
	// TableBits is the scheme's per-node routing table size in bits.
	TableBits func(v int) int
	// StretchBound is the scheme's analysed stretch guarantee (1 for
	// the full table, +Inf for the single tree).
	StretchBound float64
}

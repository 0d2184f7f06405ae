// Package exp implements the experiment harness: each experiment
// regenerates one of the paper's tables or figures (see DESIGN.md's
// experiment index) as printed rows, from live runs of the schemes in
// this repository. cmd/routebench is the CLI front end and
// bench_test.go wraps each experiment as a benchmark.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package exp

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/schemes"
)

// Env is one benchmark network with its metric oracle. A holds
// whichever distance backend the env was built on; the two backends
// answer every Distancer query bit-identically, so experiment output
// depends on the backend only through build cost.
type Env struct {
	Name string
	G    *graph.Graph
	A    metric.Distancer
}

// NewEnv builds the named row of the graph-family table targeting n
// nodes and compiles its metric on a distance backend. backend ""
// selects the dense backend and names the env by the family's label
// alone; a named backend ("dense", "lazy", as routebench's -backend
// passes) is appended to the label in parentheses.
func NewEnv(kind string, n int, seed int64, backend string) (*Env, error) {
	fam, err := graph.LookupFamily(kind)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	g, err := fam.Make(n, seed)
	if err != nil {
		return nil, err
	}
	a, err := metric.NewBackend(g, backend)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	name := fam.Label(n, g)
	if backend != "" {
		name += " (" + backend + ")"
	}
	return &Env{Name: name, G: g, A: a}, nil
}

// Pairs samples routed pairs for the env.
func (e *Env) Pairs(count int, seed int64) [][2]int {
	if count <= 0 || count >= e.G.N()*(e.G.N()-1) {
		return core.AllPairs(e.G.N())
	}
	return core.SamplePairs(e.G.N(), count, seed)
}

// newTab returns a tabwriter for aligned experiment output.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// build compiles the registered scheme name on env through its
// registry entry — ε clamped to the entry's cap, original names drawn
// from seed — and returns the concrete scheme, which must be an S,
// with the ε it was built at.
func build[S any](e *Env, name string, eps float64, seed int64) (S, float64, error) {
	var s S
	entry, err := schemes.Lookup(name)
	if err != nil {
		return s, 0, err
	}
	eps = entry.Eps(eps)
	inst, err := entry.Build(e.G, e.A, eps, seed)
	if err != nil {
		return s, 0, err
	}
	return inst.Impl.(S), eps, nil
}

// capEps is eps clamped to the registry cap of scheme name — the ε
// build compiles it at — for experiments that call the scheme's
// constructor directly.
func capEps(name string, eps float64) (float64, error) {
	entry, err := schemes.Lookup(name)
	if err != nil {
		return 0, err
	}
	return entry.Eps(eps), nil
}

// logn returns ceil(log2 n) as a float for bound columns.
func logn(n int) float64 { return math.Ceil(math.Log2(float64(n))) }

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

// EnvOn builds a named workload family on an explicit distance backend
// — the switchboard behind cmd/routebench's -backend flag and the
// APSP-free experiment family. Kinds: geometric, grid-holes, exp-path,
// unit-path, power-law. Its power-law family is graph.PowerLaw(n, 2, 8,
// seed); compactrouting.GenerateNetwork (routed) and _bench use 1024.
func EnvOn(kind string, n int, seed int64, backend string) (*Env, error) {
	var (
		g   *graph.Graph
		err error
	)
	name := ""
	switch kind {
	case "geometric":
		radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
		g, _, err = graph.RandomGeometric(n, radius, seed)
		if g != nil {
			name = fmt.Sprintf("geometric n=%d", g.N())
		}
	case "grid-holes":
		side := int(math.Ceil(math.Sqrt(float64(n))))
		g, _, err = graph.GridWithHoles(side, side, 0.25, seed)
		name = fmt.Sprintf("grid-holes %dx%d", side, side)
	case "exp-path":
		g, err = graph.ExponentialPath(n, 4)
		name = fmt.Sprintf("exp-path n=%d base=4", n)
	case "unit-path":
		g, err = graph.Path(n, 1)
		name = fmt.Sprintf("unit-path n=%d", n)
	case "power-law":
		g, err = graph.PowerLaw(n, 2, 8, seed)
		name = fmt.Sprintf("power-law n=%d", n)
	default:
		return nil, fmt.Errorf("exp: unknown graph kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	a, err := metric.NewBackend(g, backend)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return &Env{Name: name + " (" + orName(backend) + ")", G: g, A: a}, nil
}

// orName normalizes the backend display name.
func orName(backend string) string {
	if backend == "" {
		return "dense"
	}
	return backend
}

// GridHolesEnv returns a side x side grid with 25% holes.
func GridHolesEnv(side int, seed int64) (*Env, error) {
	g, _, err := graph.GridWithHoles(side, side, 0.25, seed)
	if err != nil {
		return nil, err
	}
	return &Env{Name: fmt.Sprintf("grid-holes %dx%d", side, side), G: g, A: metric.NewAPSP(g)}, nil
}

// GeometricEnv returns a random geometric graph targeting roughly n
// nodes.
func GeometricEnv(n int, seed int64) (*Env, error) {
	radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n)) // above the connectivity threshold
	g, _, err := graph.RandomGeometric(n, radius, seed)
	if err != nil {
		return nil, err
	}
	return &Env{Name: fmt.Sprintf("geometric n=%d", g.N()), G: g, A: metric.NewAPSP(g)}, nil
}

// ExpStarEnv returns an exponential-diameter star of k arms.
func ExpStarEnv(n, k int, base float64) (*Env, error) {
	g, err := graph.ExponentialStar(n, k, base)
	if err != nil {
		return nil, err
	}
	return &Env{Name: fmt.Sprintf("exp-star n=%d", n), G: g, A: metric.NewAPSP(g)}, nil
}

// ExpPathEnv returns an exponential-diameter path.
func ExpPathEnv(n int, base float64) (*Env, error) {
	g, err := graph.ExponentialPath(n, base)
	if err != nil {
		return nil, err
	}
	return &Env{Name: fmt.Sprintf("exp-path n=%d base=%v", n, base), G: g, A: metric.NewAPSP(g)}, nil
}

// UnitPathEnv returns a unit-weight path.
func UnitPathEnv(n int) (*Env, error) {
	g, err := graph.Path(n, 1)
	if err != nil {
		return nil, err
	}
	return &Env{Name: fmt.Sprintf("unit-path n=%d", n), G: g, A: metric.NewAPSP(g)}, nil
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
// from seed — and returns the concrete scheme, which must be an S.
func build[S any](e *Env, name string, eps float64, seed int64) (S, error) {
	var s S
	entry, err := schemes.Lookup(name)
	if err != nil {
		return s, err
	}
	inst, err := entry.Build(e.G, e.A, eps, seed)
	if err != nil {
		return s, err
	}
	return inst.Impl.(S), nil
}

// logn returns ceil(log2 n) as a float for bound columns.
func logn(n int) float64 { return math.Ceil(math.Log2(float64(n))) }

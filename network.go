package compactrouting

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// EdgeSpec describes one undirected edge for NewNetwork.
type EdgeSpec struct {
	U, V   int
	Weight float64
}

// Backend names a distance backend a Network can be preprocessed on.
// The two backends answer every metric query bit-identically (see
// internal/metric's equivalence suite); they differ only in cost:
// dense pays O(n²) memory up front for O(1) queries, lazy computes
// truncated Dijkstra rows on demand in a bounded cache.
type Backend string

const (
	// BackendDense runs Dijkstra from every node at construction and
	// stores the full n×n matrices.
	BackendDense Backend = "dense"
	// BackendLazy answers queries from per-source truncated Dijkstra
	// rows cached in a bounded LRU — o(n²) memory for ball-local
	// construction patterns, which is what the schemes execute.
	BackendLazy Backend = "lazy"
)

// ParseBackend validates a backend flag value; "" selects dense.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendDense:
		return BackendDense, nil
	case BackendLazy:
		return BackendLazy, nil
	default:
		return "", fmt.Errorf("compactrouting: unknown backend %q (want dense|lazy)", s)
	}
}

// Network is a preprocessed network: the graph plus its shortest-path
// metric oracle. All scheme constructors hang off it, so the metric
// preprocessing (the dense matrix, or the lazy backend's row cache) is
// shared.
type Network struct {
	g    *graph.Graph
	dist metric.Distancer
}

// NewNetwork builds a network from an explicit edge list on the dense
// backend. The graph must be connected, with positive finite weights,
// no self-loops.
func NewNetwork(n int, edges []EdgeSpec) (*Network, error) {
	return NewNetworkOn(n, edges, BackendDense)
}

// NewNetworkOn is NewNetwork on an explicit distance backend.
func NewNetworkOn(n int, edges []EdgeSpec, backend Backend) (*Network, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return wrapOn(g, backend)
}

func wrap(g *graph.Graph) *Network {
	return &Network{g: g, dist: metric.NewAPSP(g)}
}

func wrapOn(g *graph.Graph, backend Backend) (*Network, error) {
	a, err := metric.NewBackend(g, string(backend))
	if err != nil {
		return nil, fmt.Errorf("compactrouting: %w", err)
	}
	return &Network{g: g, dist: a}, nil
}

// Graph returns the underlying graph. The returned value is shared and
// must be treated as read-only; serving layers (internal/server) use it
// to drive step functions without rebuilding adjacency.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Distancer returns the shortest-path metric oracle. Shared, safe for
// concurrent queries (the dense backend is immutable; the lazy backend
// locks internally).
func (nw *Network) Distancer() metric.Distancer { return nw.dist }

// Backend reports which distance backend the network was preprocessed
// on.
func (nw *Network) Backend() Backend {
	if _, ok := nw.dist.(*metric.APSP); ok {
		return BackendDense
	}
	return BackendLazy
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.g.N() }

// M returns the number of edges.
func (nw *Network) M() int { return nw.g.M() }

// Dist returns the shortest-path distance between two nodes.
func (nw *Network) Dist(u, v int) float64 { return nw.dist.Dist(u, v) }

// Diameter returns the largest pairwise distance on the dense backend.
// On the lazy backend the exact diameter would cost a full Dijkstra
// per node, so it returns the eccentricity of node 0 instead — a lower
// bound within a factor 2 of the diameter, and the same covering
// radius the scheme constructors anchor their hierarchies on.
func (nw *Network) Diameter() float64 {
	if a, ok := nw.dist.(*metric.APSP); ok {
		return a.Diameter()
	}
	return nw.dist.Eccentricity(0)
}

// NormalizedDiameter returns Delta, the ratio of the largest to the
// smallest pairwise distance (with Diameter's lazy-backend caveat).
func (nw *Network) NormalizedDiameter() float64 {
	if nw.g.N() < 2 {
		return 1
	}
	return nw.Diameter() / nw.dist.MinPairDistance()
}

// DoublingDimension estimates the metric's doubling dimension by
// greedy half-radius covers over sampled balls (samples <= 0 sweeps
// every node). The estimate alpha' satisfies alpha <= alpha' <=
// 2*alpha for the true dimension alpha.
func (nw *Network) DoublingDimension(samples int, seed int64) float64 {
	return metric.EstimateDoublingDimension(nw.dist, samples, seed)
}

// GenerateNetwork builds a named workload family on an explicit
// backend — the switchboard behind routed's -graph/-backend flags.
// Kinds: geometric, grid, grid-holes, ring, exp-path, power-law.
// Its power-law family (as _bench's copy) is graph.PowerLaw(n, 2, 1024,
// seed); exp.EnvOn's (routebench -graph power-law) caps weights at 8.
func GenerateNetwork(kind string, n int, seed int64, backend Backend) (*Network, error) {
	var (
		g   *graph.Graph
		err error
	)
	switch kind {
	case "geometric":
		radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
		g, _, err = graph.RandomGeometric(n, radius, seed)
	case "grid":
		side := int(math.Ceil(math.Sqrt(float64(n))))
		g, err = graph.Grid(side, side)
	case "grid-holes":
		side := int(math.Ceil(math.Sqrt(float64(n))))
		g, _, err = graph.GridWithHoles(side, side, 0.25, seed)
	case "ring":
		g, err = graph.Ring(n)
	case "exp-path":
		g, err = graph.ExponentialPath(n, 4)
	case "power-law":
		g, err = graph.PowerLaw(n, 2, 1024, seed)
	default:
		return nil, fmt.Errorf("compactrouting: unknown graph kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return wrapOn(g, backend)
}

// GridNetwork returns the rows x cols unit grid.
func GridNetwork(rows, cols int) (*Network, error) {
	g, err := graph.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// GridWithHolesNetwork returns the largest component of a grid with
// each cell deleted with probability holeProb: the paper's canonical
// doubling-but-not-growth-bounded family.
func GridWithHolesNetwork(rows, cols int, holeProb float64, seed int64) (*Network, error) {
	g, _, err := graph.GridWithHoles(rows, cols, holeProb, seed)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// RandomGeometricNetwork returns the largest component of a random
// geometric graph on n points with the given connection radius,
// weights scaled so the minimum edge weight is 1.
func RandomGeometricNetwork(n int, radius float64, seed int64) (*Network, error) {
	g, _, err := graph.RandomGeometric(n, radius, seed)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// PathNetwork returns a path with uniform edge weight.
func PathNetwork(n int, weight float64) (*Network, error) {
	g, err := graph.Path(n, weight)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// RingNetwork returns the unit-weight n-cycle.
func RingNetwork(n int) (*Network, error) {
	g, err := graph.Ring(n)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// ExponentialPathNetwork returns a path whose i-th edge weighs base^i:
// a line metric whose normalized diameter is exponential in n — the
// family separating scale-free from non-scale-free schemes.
func ExponentialPathNetwork(n int, base float64) (*Network, error) {
	g, err := graph.ExponentialPath(n, base)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// ExponentialStarNetwork returns a star of k arms whose j-th arm has
// edges of weight base^j.
func ExponentialStarNetwork(n, k int, base float64) (*Network, error) {
	g, err := graph.ExponentialStar(n, k, base)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// ReadNetwork parses the plain edge-list format emitted by
// cmd/graphgen: an "n <count>" header line followed by one "u v weight"
// line per undirected edge. Blank lines and lines starting with '#' are
// skipped. The graph must be connected. The network is preprocessed on
// the dense backend; ReadNetworkOn selects one.
func ReadNetwork(r io.Reader) (*Network, error) {
	return ReadNetworkOn(r, BackendDense)
}

// ReadNetworkOn is ReadNetwork on an explicit distance backend.
func ReadNetworkOn(r io.Reader, backend Backend) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *graph.Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if b == nil {
			var n int
			if _, err := fmt.Sscanf(text, "n %d", &n); err != nil {
				return nil, fmt.Errorf("compactrouting: line %d: want \"n <count>\" header, got %q", line, text)
			}
			b = graph.NewBuilder(n)
			continue
		}
		var u, v int
		var w float64
		if _, err := fmt.Sscanf(text, "%d %d %g", &u, &v, &w); err != nil {
			return nil, fmt.Errorf("compactrouting: line %d: bad edge %q: %w", line, text, err)
		}
		if err := b.AddEdge(u, v, w); err != nil {
			return nil, fmt.Errorf("compactrouting: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("compactrouting: empty network stream")
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return wrapOn(g, backend)
}

// Validate sanity-checks an externally supplied pair list against the
// network size.
func (nw *Network) Validate(pairs [][2]int) error {
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= nw.g.N() || p[1] < 0 || p[1] >= nw.g.N() {
			return fmt.Errorf("compactrouting: pair %v out of range [0, %d)", p, nw.g.N())
		}
	}
	return nil
}

package main

import (
	"fmt"
	"math"
	"math/rand"

	"compactrouting"
	"compactrouting/internal/graph"
)

// Shared parameters of every workload. They mirror cmd/routed's
// defaults: eps 0.25 and a 65,536-entry route cache.
const (
	nodes        = 2048
	eps          = 0.25
	cacheEntries = 1 << 16
	zipfS        = 1.1
	// sampleSize is the fixed verification sample answered through the
	// protocol under test before and after the timed window.
	sampleSize = 1000
	// setupReps is how many times a run performs its set-up; setup_s is
	// the median.
	setupReps = 3
)

// workload is one named traffic mix against one engine configuration.
// Why each exists is in README.md and BENCHMARK.json.
type workload struct {
	name    string
	graph   string // "geometric" (doubling) or "power-law" (Internet-like)
	backend compactrouting.Backend
	scheme  string
	// restore sets the engine up from a snapshot file instead of the
	// constructors.
	restore bool
	proto   string // "tcp" (framed batches) or "http" (POST /route)
	conns   int
	batch   int    // pairs per TCP frame; 1 for HTTP
	stream  string // "zipf" or "distinct"
}

var workloads = []workload{
	{
		name:    "tcp-zipf",
		graph:   "geometric",
		backend: compactrouting.BackendDense,
		scheme:  "name-independent",
		proto:   "tcp",
		conns:   2,
		batch:   64,
		stream:  "zipf",
	},
	{
		name:    "http-restore",
		graph:   "geometric",
		backend: compactrouting.BackendDense,
		scheme:  "name-independent",
		restore: true,
		proto:   "http",
		conns:   2,
		batch:   1,
		stream:  "zipf",
	},
	{
		name:    "lazy-uniform",
		graph:   "power-law",
		backend: compactrouting.BackendLazy,
		scheme:  "simple-labeled",
		proto:   "tcp",
		conns:   1,
		batch:   8,
		stream:  "distinct",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run hands the program under test: the network
// as an edge list and the verification sample. The timed pair stream
// is drawn per connection from newStream.
type inputs struct {
	n      int
	edges  []compactrouting.EdgeSpec
	sample [][2]int
}

// makeInputs derives a run's inputs from its seed alone.
func makeInputs(w workload, seed int64) (*inputs, error) {
	g, err := generate(w.graph, nodes, subSeed(seed, "graph"))
	if err != nil {
		return nil, err
	}
	in := &inputs{n: g.N(), edges: edgeList(g)}
	perm := newPermutation(pairCount(in.n), subSeed(seed, "sample"))
	for i := uint64(0); i < sampleSize; i++ {
		in.sample = append(in.sample, pairAt(perm.at(i), in.n))
	}
	return in, nil
}

// generate builds one graph of the named family, with the parameters
// compactrouting.GenerateNetwork uses for the same kind.
func generate(kind string, n int, seed int64) (*graph.Graph, error) {
	switch kind {
	case "geometric":
		g, _, err := graph.RandomGeometric(n, 1.8*math.Sqrt(math.Log(float64(n))/float64(n)), seed)
		return g, err
	case "power-law":
		return graph.PowerLaw(n, 2, 1024, seed)
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}

// edgeList returns g's undirected edges in ascending (u, v) order, u < v.
func edgeList(g *graph.Graph) []compactrouting.EdgeSpec {
	var out []compactrouting.EdgeSpec
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				out = append(out, compactrouting.EdgeSpec{U: u, V: e.To, Weight: e.Weight})
			}
		}
	}
	return out
}

// buildGraph rebuilds the graph from an edge list the way
// compactrouting.NewNetworkOn does, so every party (engine, reference,
// traced replay) routes over identical adjacency.
func buildGraph(n int, edges []compactrouting.EdgeSpec) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// subSeed derives an independent seed for one named use of the run seed.
func subSeed(seed int64, use string) int64 {
	h := uint64(seed)
	for _, c := range use {
		h = splitmix(h ^ uint64(c))
	}
	return int64(splitmix(h) >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairCount is the number of ordered pairs (src, dst) with src != dst.
func pairCount(n int) uint64 { return uint64(n) * uint64(n-1) }

// pairAt maps k in [0, pairCount(n)) to the k-th ordered pair with
// distinct endpoints: a bijection, so distinct k give distinct pairs.
func pairAt(k uint64, n int) [2]int {
	src := int(k / uint64(n-1))
	dst := int(k % uint64(n-1))
	if dst >= src {
		dst++
	}
	return [2]int{src, dst}
}

// permutation is a seeded bijection on [0, size): a four-round Feistel
// network on the smallest even bit width covering size, cycle-walked
// back into range.
type permutation struct {
	size uint64
	half uint
	keys [4]uint64
}

func newPermutation(size uint64, seed int64) permutation {
	width := uint(1)
	for (uint64(1) << width) < size {
		width++
	}
	if width%2 == 1 {
		width++
	}
	p := permutation{size: size, half: width / 2}
	k := uint64(seed)
	for i := range p.keys {
		k = splitmix(k)
		p.keys[i] = k
	}
	return p
}

func (p permutation) at(i uint64) uint64 {
	if i >= p.size {
		panic("permutation index out of range")
	}
	x := p.feistel(i)
	for x >= p.size {
		x = p.feistel(x)
	}
	return x
}

func (p permutation) feistel(x uint64) uint64 {
	mask := uint64(1)<<p.half - 1
	l, r := x>>p.half, x&mask
	for _, k := range p.keys {
		l, r = r, l^(splitmix(r^k)&mask)
	}
	return l<<p.half | r
}

// stream yields one connection's pair sequence; it is a pure function
// of (workload, n, seed, connection index).
type stream interface {
	next() [2]int
}

// zipfStream draws pair ranks from a Zipf(s) law over every ordered
// pair; a seeded permutation maps rank to pair, so the hot pairs are
// spread over the network rather than clustered at low node ids.
type zipfStream struct {
	n    int
	z    *rand.Zipf
	perm permutation
}

// distinctStream walks a seeded permutation of all ordered pairs, each
// connection taking every conns-th position: no pair ever repeats, on
// one connection or across them.
type distinctStream struct {
	n           int
	perm        permutation
	pos, stride uint64
}

func (s *zipfStream) next() [2]int { return pairAt(s.perm.at(s.z.Uint64()), s.n) }

func (s *distinctStream) next() [2]int {
	p := pairAt(s.perm.at(s.pos%s.perm.size), s.n)
	s.pos += s.stride
	return p
}

func newStream(w workload, n int, seed int64, conn int) stream {
	total := pairCount(n)
	switch w.stream {
	case "zipf":
		// Every connection shares the rank→pair map (one popularity
		// law) but draws its own rank sequence.
		r := rand.New(rand.NewSource(subSeed(seed, fmt.Sprintf("zipf-draws-%d", conn))))
		return &zipfStream{n: n, z: rand.NewZipf(r, zipfS, 1, total-1), perm: newPermutation(total, subSeed(seed, "zipf-ranks"))}
	default:
		return &distinctStream{n: n, perm: newPermutation(total, subSeed(seed, "distinct")), pos: uint64(conn), stride: uint64(w.conns)}
	}
}

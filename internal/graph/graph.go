// Package graph provides the weighted undirected graph type that every
// routing scheme in this repository operates on, together with the
// generator families used by the experiments (grids with holes, random
// geometric graphs, exponential-diameter paths, random trees).
//
// Nodes are dense integer ids 0..N()-1. Edge weights are positive
// float64s; the shortest-path metric they induce is what the paper calls
// the network's metric. Doubling-dimension generators here produce graphs
// whose metrics have small doubling constant, matching the paper's model
// of "networks of low doubling dimension".
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Edge is a half-edge: the neighbor it leads to and its weight.
type Edge struct {
	To     int
	Weight float64
}

// Graph is an immutable connected weighted undirected graph.
// Construct one with a Builder.
type Graph struct {
	adj [][]Edge
	m   int
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the adjacency list of v. The returned slice must not
// be modified.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// EdgeWeight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	for _, e := range g.adj[u] {
		if e.To == v {
			return e.Weight, true
		}
	}
	return 0, false
}

// NeighborWeight is EdgeWeight by binary search: adjacency lists are
// sorted by neighbor id, so per-transmission lookups (the dist engine
// validates and weighs every message against the sender's adjacency)
// cost O(log deg) instead of EdgeWeight's linear scan.
//
//determinlint:hotpath
func (g *Graph) NeighborWeight(u, v int) (float64, bool) {
	adj := g.adj[u]
	// The first position whose neighbor is >= v (sort.Search, inlined).
	i, j := 0, len(adj)
	for i < j {
		h := int(uint(i+j) >> 1)
		if adj[h].To < v {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(adj) && adj[i].To == v {
		return adj[i].Weight, true
	}
	return 0, false
}

// MinEdgeWeight returns the smallest edge weight in the graph.
func (g *Graph) MinEdgeWeight() float64 {
	min := math.Inf(1)
	for v := range g.adj {
		for _, e := range g.adj[v] {
			if e.Weight < min {
				min = e.Weight
			}
		}
	}
	return min
}

// Builder accumulates edges for a Graph. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	n     int
	edges map[[2]int]float64
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[[2]int]float64)}
}

// AddEdge records the undirected edge (u,v) with weight w. Adding the
// same edge twice keeps the smaller weight. It returns an error for
// out-of-range endpoints, self-loops, or non-positive/non-finite weights.
func (b *Builder) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	key := [2]int{u, v}
	if u > v {
		key = [2]int{v, u}
	}
	if old, ok := b.edges[key]; !ok || w < old {
		b.edges[key] = w
	}
	return nil
}

// Build validates connectivity and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, errors.New("graph: empty graph")
	}
	g := &Graph{adj: make([][]Edge, b.n), m: len(b.edges)}
	for key, w := range b.edges {
		u, v := key[0], key[1]
		g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
		g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	}
	for v := range g.adj {
		adj := g.adj[v]
		sort.Slice(adj, func(i, j int) bool { return adj[i].To < adj[j].To })
	}
	if b.n > 1 && !g.connected() {
		return nil, errors.New("graph: not connected")
	}
	return g, nil
}

func (g *Graph) connected() bool {
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.N()
}

// InducedSubgraph returns the subgraph induced by keep (a node subset),
// relabeled to dense ids in the order keep lists them, together with the
// old-id slice indexed by new id. It fails if the induced subgraph is
// disconnected.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int, error) {
	newID := make(map[int]int, len(keep))
	for i, v := range keep {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: node %d out of range", v)
		}
		if _, dup := newID[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in keep set", v)
		}
		newID[v] = i
	}
	b := NewBuilder(len(keep))
	for _, v := range keep {
		for _, e := range g.adj[v] {
			if w, ok := newID[e.To]; ok && newID[v] < w {
				if err := b.AddEdge(newID[v], w, e.Weight); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	old := make([]int, len(keep))
	copy(old, keep)
	return sub, old, nil
}

// LargestComponent returns the node set of the largest connected
// component of the graph described by n and edges (used by generators
// before Build, which requires connectivity).
func LargestComponent(n int, edges map[[2]int]float64) []int {
	adj := make([][]int, n)
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		adj[key[1]] = append(adj[key[1]], key[0])
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var best []int
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		cur := []int{s}
		comp[s] = s
		for i := 0; i < len(cur); i++ {
			for _, w := range adj[cur[i]] {
				if comp[w] < 0 {
					comp[w] = s
					cur = append(cur, w)
				}
			}
		}
		if len(cur) > len(best) {
			best = cur
		}
	}
	sort.Ints(best)
	return best
}

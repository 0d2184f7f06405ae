// Command graphgen emits the repository's generator graphs as a plain
// edge list ("u v weight" per line, preceded by a "n <count>" header) —
// handy for inspecting workloads or feeding them to other tools.
//
// Usage:
//
//	graphgen -kind grid -n 64
//	graphgen -kind geometric -n 256 -seed 7 > net.txt
//	graphgen -kind lower-bound -n 256 -p 4 -q 2
//
// Kinds: every row of the graph-family table (internal/graph/families.go), plus
// lower-bound, the paper's Figure 3 tree (internal/lowerbound).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"compactrouting/internal/graph"
	"compactrouting/internal/lowerbound"
)

func main() {
	var (
		kind = flag.String("kind", "geometric", "graph family: "+graph.FamilyNames()+"|lower-bound")
		n    = flag.Int("n", 256, "target size")
		seed = flag.Int64("seed", 1, "random seed")
		p    = flag.Int("p", 4, "lower-bound tree doublings")
		q    = flag.Int("q", 2, "lower-bound tree weights per doubling")
	)
	flag.Parse()
	g, err := build(*kind, *n, *seed, *p, *q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "n %d\n", g.N())
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				fmt.Fprintf(w, "%d %d %g\n", u, e.To, e.Weight)
			}
		}
	}
}

func build(kind string, n int, seed int64, p, q int) (*graph.Graph, error) {
	if kind == "lower-bound" {
		t, err := lowerbound.Build(lowerbound.Params{P: p, Q: q}, n)
		if err != nil {
			return nil, err
		}
		return t.G, nil
	}
	fam, err := graph.LookupFamily(kind)
	if err != nil {
		return nil, err
	}
	return fam.Make(n, seed)
}

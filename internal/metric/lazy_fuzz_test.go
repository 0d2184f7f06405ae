package metric

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"compactrouting/internal/graph"
)

// fuzzGraph deterministically builds a small connected graph from fuzz
// bytes: a weighted path 0—1—…—(n-1) guarantees connectivity, then the
// remaining bytes add chords in triples (endpoint, endpoint, weight).
// Weights are quantized to 1 + k/8 so duplicate edges exercise the
// builder's min-weight rule without float surprises.
func fuzzGraph(data []byte) (*graph.Graph, int, bool) {
	if len(data) < 4 {
		return nil, 0, false
	}
	n := 2 + int(data[0])%31
	b := graph.NewBuilder(n)
	w := func(raw byte) float64 { return 1 + float64(raw&0x3f)/8 }
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(i, i+1, w(data[1+i%(len(data)-1)])); err != nil {
			return nil, 0, false
		}
	}
	for i := 4; i+2 < len(data); i += 3 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, w(data[i+2])); err != nil {
			return nil, 0, false
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, 0, false
	}
	return g, n, true
}

// fuzzLazySeeds is the checked-in corpus: a bare path, a path with one
// chord, heavy chording (duplicate edges hit the min-weight rule), a
// two-node graph, and a triangle-dense blob — the shapes that drove
// the ball/eviction edge cases during development.
func fuzzLazySeeds() [][]byte {
	return [][]byte{
		{8, 3, 4, 1},
		{12, 7, 2, 1, 0, 5, 9},
		{31, 200, 16, 2, 1, 2, 3, 1, 2, 63, 1, 2, 0, 4, 4, 40, 5, 6, 7},
		{0, 0, 1, 255},
		{16, 9, 8, 3, 0, 8, 17, 8, 0, 33, 15, 1, 12, 3, 14, 2},
	}
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus. Regenerate:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	for target, seeds := range map[string][][]byte{
		"FuzzLazyBall":    fuzzLazySeeds(),
		"FuzzKernelQueue": kernelQueueSeeds(),
		"FuzzPointDist":   fuzzPointSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, data := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzLazyBall differentially fuzzes the lazy backend against the
// dense one: the input bytes choose a graph, a source, a ball size,
// and a deliberately tiny cache budget, and every ball/radius/distance
// answer must match the dense oracle bit for bit — including answers
// recomputed after the tiny cache has evicted and re-derived the row.
func FuzzLazyBall(f *testing.F) {
	for _, data := range fuzzLazySeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, n, ok := fuzzGraph(data)
		if !ok {
			return
		}
		u := int(data[1]) % n
		size := 1 + int(data[2])%n
		maxEnt := 1 + int(data[3])
		dense := NewAPSP(g)
		lazy := NewLazyOracleOpts(g, LazyOpts{MaxEntries: maxEnt})
		r := dense.RadiusOfSize(u, size)
		if lr := lazy.RadiusOfSize(u, size); !eqBits(r, lr) {
			t.Fatalf("RadiusOfSize(%d,%d): dense %v lazy %v", u, size, r, lr)
		}
		if !intsEqual(dense.BallOfSize(u, size), lazy.BallOfSize(u, size)) {
			t.Fatalf("BallOfSize(%d,%d) differs", u, size)
		}
		// Sweep radii just below, at, and above the size-r radius: the
		// boundary is where the tie-flush gate earns its keep.
		for _, rr := range []float64{r * 0.99, r, r * 1.01, r * 2} {
			if !intsEqual(dense.Ball(u, rr), lazy.Ball(u, rr)) {
				t.Fatalf("Ball(%d,%g) differs", u, rr)
			}
			if ds, ls := dense.BallSize(u, rr), lazy.BallSize(u, rr); ds != ls {
				t.Fatalf("BallSize(%d,%g): dense %d lazy %d", u, rr, ds, ls)
			}
		}
		// Full row from u, then a second source to force eviction at
		// tiny budgets, then u again: the re-derived row must agree.
		for _, src := range []int{u, (u + n/2) % n, u} {
			for v := 0; v < n; v++ {
				if dd, ld := dense.Dist(src, v), lazy.Dist(src, v); !eqBits(dd, ld) {
					t.Fatalf("Dist(%d,%d): dense %v lazy %v", src, v, dd, ld)
				}
			}
			if dh, lh := dense.NextHop(src, (src+1)%n), lazy.NextHop(src, (src+1)%n); dh != lh {
				t.Fatalf("NextHop(%d,%d): dense %d lazy %d", src, (src+1)%n, dh, lh)
			}
		}
	})
}

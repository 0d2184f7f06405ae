package main

import (
	"reflect"
	"testing"
)

func firstPairs(s stream, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < w.conns; conn++ {
			a := firstPairs(newStream(w, nodes, 7, conn), 5000)
			b := firstPairs(newStream(w, nodes, 7, conn), 5000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s conn %d: same seed gave different streams", w.name, conn)
			}
			if c := firstPairs(newStream(w, nodes, 8, conn), 5000); reflect.DeepEqual(a, c) {
				t.Fatalf("%s conn %d: seeds 7 and 8 gave the same stream", w.name, conn)
			}
			for _, p := range a {
				if p[0] == p[1] || p[0] < 0 || p[1] < 0 || p[0] >= nodes || p[1] >= nodes {
					t.Fatalf("%s: bad pair %v", w.name, p)
				}
			}
		}
	}
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different inputs", w.name)
		}
		if len(a.sample) != sampleSize {
			t.Fatalf("%s: sample has %d pairs", w.name, len(a.sample))
		}
	}
}

func TestDistinctStreamNeverRepeats(t *testing.T) {
	w, err := findWorkload("lazy-uniform")
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust every ordered pair of a small network.
	const n = 40
	seen := make(map[[2]int]bool)
	s := newStream(w, n, 5, 0)
	for i := uint64(0); i < pairCount(n); i++ {
		p := s.next()
		if p[0] == p[1] || seen[p] {
			t.Fatalf("pair %d: %v repeats or is a self pair", i, p)
		}
		seen[p] = true
	}
	// At full size, across two connections sharing one permutation.
	w.conns = 2
	seen = make(map[[2]int]bool)
	for conn := 0; conn < w.conns; conn++ {
		for _, p := range firstPairs(newStream(w, nodes, 5, conn), 100000) {
			if seen[p] {
				t.Fatalf("conn %d: %v repeats", conn, p)
			}
			seen[p] = true
		}
	}
}

func TestPermutationIsBijection(t *testing.T) {
	for _, size := range []uint64{1, 2, 3, 17, 64, 1000, 4097} {
		p := newPermutation(size, int64(size))
		seen := make([]bool, size)
		for i := uint64(0); i < size; i++ {
			x := p.at(i)
			if x >= size || seen[x] {
				t.Fatalf("size %d: index %d maps to %d (out of range or repeated)", size, i, x)
			}
			seen[x] = true
		}
	}
}

func TestPairAtCoversOffDiagonal(t *testing.T) {
	const n = 9
	seen := make(map[[2]int]bool)
	for k := uint64(0); k < pairCount(n); k++ {
		p := pairAt(k, n)
		if p[0] == p[1] || seen[p] {
			t.Fatalf("k=%d: %v", k, p)
		}
		seen[p] = true
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("covered %d pairs, want %d", len(seen), n*(n-1))
	}
}

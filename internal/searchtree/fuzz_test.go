package searchtree

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// fuzzN is the node count of the seed trees' graph, and the id bound
// FuzzDecodeTree decodes under.
const fuzzN = 48

// encodeInt and decodeInt are the stored-data codec of the tests.
func encodeInt(w *bits.Writer, d int) { w.WriteUvarint(uint64(d)) }

func decodeInt(r *bits.Reader) (int, error) {
	d := decoder{r: r}
	v := d.uint(math.MaxInt32, "datum")
	return v, d.err
}

// fuzzSeeds returns encoded trees built by New and Store on a geometric
// graph (uncapped, capped with tails, a singleton, three pairs per
// member, no pairs at all) and the two hand-written streams of
// twoNodeStream: a canonical one and one whose child reference
// disagrees with the child's own record.
func fuzzSeeds(tb testing.TB) [][]byte {
	g, _, err := graph.RandomGeometric(fuzzN, 0.3, 3)
	if err != nil {
		tb.Fatal(err)
	}
	a := metric.NewAPSP(g)
	var out [][]byte
	for _, c := range []struct {
		center          int
		frac            float64
		maxLevels, each int
	}{{0, 0.5, 0, 1}, {5, 1, 2, 1}, {7, 0, 0, 1}, {3, 0.7, 0, 3}, {9, 0.4, 1, 0}} {
		tr, err := New[int](a, c.center, a.Diameter()*c.frac, Config{
			Eps: 0.5, MaxLevels: c.maxLevels, MinNetRadius: a.MinPairDistance(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		pairs := make([]Pair[int], c.each*tr.Len())
		for i := range pairs {
			pairs[i] = Pair[int]{Key: 3*i + 1, Data: i}
		}
		tr.Store(pairs)
		var w bits.Writer
		EncodeTree(&w, tr, encodeInt)
		out = append(out, append([]byte(nil), w.Bytes()...))
	}
	return append(out, twoNodeStream(1), twoNodeStream(2))
}

// twoNodeStream hand-writes the tree 0 -> 1 (edge weight 1, key 10
// stored at node 0 and key 20 at node 1) whose center refers to node 1
// with edge weight refW: refW == 1 is what EncodeTree writes, any other
// value disagrees with node 1's own record.
func twoNodeStream(refW float64) []byte {
	var w bits.Writer
	w.WriteUvarint(0) // center
	for _, f := range []float64{2, 0.5, 0} {
		w.WriteBits(math.Float64bits(f), 64) // radius, eps, tail edge weight
	}
	writeIDs(&w, []int32{0, 1}) // members
	w.WriteUvarint(2)           // levels {0}, {1}
	writeIDs(&w, []int32{0})
	writeIDs(&w, []int32{1})
	w.WriteUvarint(0) // no tails
	record := func(parent, level uint64, edgeW float64, kids []float64, key, data, lo, hi uint64) {
		w.WriteUvarint(parent)
		w.WriteBits(math.Float64bits(edgeW), 64)
		w.WriteUvarint(level)
		w.WriteUvarint(uint64(len(kids)))
		for _, kw := range kids { // the reference to node 1
			w.WriteUvarint(1)
			w.WriteBits(math.Float64bits(kw), 64)
			w.WriteUvarint(20)
			w.WriteUvarint(20)
			w.WriteBit(false)
		}
		w.WriteUvarint(1)
		w.WriteUvarint(key)
		w.WriteUvarint(data)
		w.WriteUvarint(lo)
		w.WriteUvarint(hi)
		w.WriteBit(false)
	}
	record(0, 1, 0, []float64{refW}, 10, 0, 10, 20)
	record(1, 2, 1, nil, 20, 1, 20, 20)
	return w.Bytes()
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus. Regenerate:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeTree")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDecodeRejectsNonCanonicalChildRecord(t *testing.T) {
	good := twoNodeStream(1)
	tr, err := DecodeTree(bits.NewReader(good, 8*len(good)), fuzzN, decodeInt)
	if err != nil {
		t.Fatalf("canonical stream refused: %v", err)
	}
	if d, found, trail := tr.Search(20); !found || d != 1 || len(trail) != 2 {
		t.Fatalf("Search(20) = %d, %v, %v", d, found, trail)
	}
	bad := twoNodeStream(2)
	if _, err := DecodeTree(bits.NewReader(bad, 8*len(bad)), fuzzN, decodeInt); err == nil {
		t.Fatal("stream whose child reference disagrees with the child's record accepted")
	}
}

// bitAt returns bit i of buf, most significant bit first.
func bitAt(buf []byte, i int) byte { return buf[i/8] >> (7 - i%8) & 1 }

// FuzzDecodeTree: arbitrary bytes either fail DecodeTree with an error
// (never a panic) or yield a tree that re-encodes to exactly the bits
// it consumed and answers Search for every stored key, and an absent
// one, with a descent no deeper than the tree.
func FuzzDecodeTree(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bits.NewReader(data, 8*len(data))
		tr, err := DecodeTree(r, fuzzN, decodeInt)
		if err != nil {
			return
		}
		used := 8*len(data) - r.Remaining()
		var w bits.Writer
		EncodeTree(&w, tr, encodeInt)
		if w.Len() != used {
			t.Fatalf("decoded %d bits, re-encoded %d", used, w.Len())
		}
		for i := 0; i < used; i++ {
			if bitAt(data, i) != bitAt(w.Bytes(), i) {
				t.Fatalf("re-encoding differs at bit %d", i)
			}
		}
		keys := []int{-1}
		for p := 0; p < tr.Len(); p++ {
			for _, pr := range tr.Pairs(p) {
				keys = append(keys, pr.Key)
			}
		}
		for _, key := range keys {
			steps := 0
			for p := int(tr.root); p >= 0; p, _, _ = tr.Step(p, key) {
				if steps++; steps > tr.Len() {
					t.Fatalf("search for %d descends past %d nodes", key, tr.Len())
				}
			}
			tr.Search(key)
		}
	})
}

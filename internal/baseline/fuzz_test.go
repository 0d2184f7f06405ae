package baseline_test

import (
	"os"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/gate"
)

func destinationSeeds(tb testing.TB) [][]byte {
	g, a, pairs := codecFixture(tb)
	s := baseline.NewFullTable(g, a)
	return gate.EncodedSeeds(harvest(tb, s, pairs[:16], 8*g.N()), 6)
}

func treeHeaderSeeds(tb testing.TB) [][]byte {
	g, _, pairs := codecFixture(tb)
	s, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return gate.EncodedSeeds(harvest(tb, s, pairs[:16], 8*g.N()), 8)
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpora from live
// headers. Regenerate with:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	gate.WriteFuzzCorpus(t, "FuzzDecodeDestination", destinationSeeds(t))
	gate.WriteFuzzCorpus(t, "FuzzDecodeTreeHeader", treeHeaderSeeds(t))
	// Both headers open with a uvarint: the destination id, the tree
	// label's DFS index.
	gate.WriteNonCanonicalSeeds(t, "FuzzDecodeDestination", baseline.Destination(0), 0)
	gate.WriteNonCanonicalSeeds(t, "FuzzDecodeTreeHeader", baseline.TreeHeader{}, 0)
}

func FuzzDecodeDestination(f *testing.F) {
	for _, s := range destinationSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gate.FuzzHeaderCodec(t, data, baseline.DecodeDestination)
	})
}

func FuzzDecodeTreeHeader(f *testing.F) {
	for _, s := range treeHeaderSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gate.FuzzHeaderCodec(t, data, baseline.DecodeTreeHeader)
	})
}

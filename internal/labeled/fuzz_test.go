package labeled_test

import (
	"os"
	"testing"

	"compactrouting/internal/gate"
	"compactrouting/internal/labeled"
)

func simpleSeeds(tb testing.TB) [][]byte {
	g, a, pairs := codecFixture(tb)
	s, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return gate.EncodedSeeds(harvest(tb, s, s.LabelOf, pairs[:16], 8*g.N()), 8)
}

func sfSeeds(tb testing.TB) [][]byte {
	g, a, pairs := codecFixture(tb)
	s, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	return gate.EncodedSeeds(harvest(tb, s, s.LabelOf, pairs[:16], 64*g.N()), 12)
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpora from live
// headers. Regenerate with:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	gate.WriteFuzzCorpus(t, "FuzzDecodeSimpleHeader", simpleSeeds(t))
	gate.WriteFuzzCorpus(t, "FuzzDecodeSFHeader", sfSeeds(t))
	// The first uvarint follows the tag: the simple header's level,
	// the SF header's label.
	gate.WriteNonCanonicalSeeds(t, "FuzzDecodeSimpleHeader", labeled.SimpleHeader{}, 2)
	gate.WriteNonCanonicalSeeds(t, "FuzzDecodeSFHeader", labeled.SFHeader{Phase: labeled.SFPhaseA}, 3)
}

func FuzzDecodeSimpleHeader(f *testing.F) {
	for _, s := range simpleSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gate.FuzzHeaderCodec(t, data, labeled.DecodeSimpleHeader)
	})
}

func FuzzDecodeSFHeader(f *testing.F) {
	for _, s := range sfSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gate.FuzzHeaderCodec(t, data, labeled.DecodeSFHeader)
	})
}

package nameind_test

import (
	"os"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/gate"
	"compactrouting/internal/labeled"
	"compactrouting/internal/nameind"
)

func niSeeds(tb testing.TB) [][]byte {
	g, a, nm, pairs := codecFixture(tb)
	under, err := labeled.NewSimple(g, a, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := nameind.NewSimple(g, a, nm, under, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	return gate.EncodedSeeds(harvest(tb, s, nm.NameOf, pairs[:12], 256*g.N()), 12)
}

func sfniSeeds(tb testing.TB) [][]byte {
	g, a, nm, pairs := codecFixture(tb)
	under, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := nameind.NewScaleFree(g, a, nm, under, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	return gate.EncodedSeeds(harvest(tb, s, nm.NameOf, pairs[:12], 512*g.N()), 12)
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpora from live
// headers. Regenerate with:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	gate.WriteFuzzCorpus(t, "FuzzDecodeNIHeader", niSeeds(t))
	gate.WriteFuzzCorpus(t, "FuzzDecodeSFNIHeader", sfniSeeds(t))
	// The name, a uvarint, follows the phase tag in both headers.
	gate.WriteNonCanonicalSeeds(t, "FuzzDecodeNIHeader", nameind.NIHeader{Phase: nameind.NIPhaseSearchUp}, 3)
	gate.WriteNonCanonicalSeeds(t, "FuzzDecodeSFNIHeader", nameind.SFNIHeader{Phase: nameind.SFNIToBall}, 3)
}

// wideNameSeed encodes h, a header whose name needs more than 32 bits.
func wideNameSeed(h interface{ Encode(*bits.Writer) }) []byte {
	var w bits.Writer
	h.Encode(&w)
	return w.Bytes()
}

func FuzzDecodeNIHeader(f *testing.F) {
	for _, s := range niSeeds(f) {
		f.Add(s)
	}
	f.Add(wideNameSeed(nameind.NIHeader{Name: 1<<32 + 3, Phase: nameind.NIPhaseSearchUp, Level: 2, Center: 5, VTarget: 9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		gate.FuzzHeaderCodec(t, data, nameind.DecodeNIHeader)
	})
}

func FuzzDecodeSFNIHeader(f *testing.F) {
	for _, s := range sfniSeeds(f) {
		f.Add(s)
	}
	f.Add(wideNameSeed(nameind.SFNIHeader{Name: 1<<40 + 7, Phase: nameind.SFNIToBall, Level: 1, Center: 4, VTarget: 11, UseBall: true, J: 2, Idx: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		gate.FuzzHeaderCodec(t, data, nameind.DecodeSFNIHeader)
	})
}

package nameind_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/labeled"
	"compactrouting/internal/nameind"
	"compactrouting/internal/walk"
)

// encodedSeeds encodes a stride-spaced sample of harvested headers,
// giving the fuzzers a corpus of real wire forms to mutate.
func encodedSeeds[H walk.Header](hs []H, max int) [][]byte {
	stride := len(hs) / max
	if stride < 1 {
		stride = 1
	}
	var out [][]byte
	for i := 0; i < len(hs) && len(out) < max; i += stride {
		var w bits.Writer
		any(hs[i]).(interface{ Encode(*bits.Writer) }).Encode(&w)
		out = append(out, append([]byte(nil), w.Bytes()...))
	}
	return out
}

// writeFuzzCorpus rewrites testdata/fuzz/<name> in Go's corpus format.
func writeFuzzCorpus(t testing.TB, name string, seeds [][]byte) {
	dir := filepath.Join("testdata", "fuzz", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

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
	return encodedSeeds(harvest(tb, s, nm.NameOf, pairs[:12], 256*g.N()), 12)
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
	return encodedSeeds(harvest(tb, s, nm.NameOf, pairs[:12], 512*g.N()), 12)
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpora from live
// headers. Regenerate with:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	writeFuzzCorpus(t, "FuzzDecodeNIHeader", niSeeds(t))
	writeFuzzCorpus(t, "FuzzDecodeSFNIHeader", sfniSeeds(t))
}

// fuzzHeaderCodec: arbitrary bytes either fail to decode or yield a
// header whose re-encoding is exactly Bits() wide and decodes back to
// itself. Must never panic or over-allocate on hostile input.
func fuzzHeaderCodec[H walk.Header](t *testing.T, data []byte, decode func(*bits.Reader) (H, error)) {
	h, err := decode(bits.NewReader(data, 8*len(data)))
	if err != nil {
		return
	}
	var w bits.Writer
	any(h).(interface{ Encode(*bits.Writer) }).Encode(&w)
	if w.Len() != h.Bits() {
		t.Fatalf("decoded header %+v re-encodes to %d bits, Bits() promises %d", h, w.Len(), h.Bits())
	}
	r := bits.NewReader(w.Bytes(), w.Len())
	got, err := decode(r)
	if err != nil {
		t.Fatalf("re-decode of %+v: %v", h, err)
	}
	if !reflect.DeepEqual(got, h) || r.Remaining() != 0 {
		t.Fatalf("re-decode: got %+v (%d bits left), want %+v", got, r.Remaining(), h)
	}
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
		fuzzHeaderCodec(t, data, nameind.DecodeNIHeader)
	})
}

func FuzzDecodeSFNIHeader(f *testing.F) {
	for _, s := range sfniSeeds(f) {
		f.Add(s)
	}
	f.Add(wideNameSeed(nameind.SFNIHeader{Name: 1<<40 + 7, Phase: nameind.SFNIToBall, Level: 1, Center: 4, VTarget: 11, UseBall: true, J: 2, Idx: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzHeaderCodec(t, data, nameind.DecodeSFNIHeader)
	})
}

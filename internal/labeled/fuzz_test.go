package labeled_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/labeled"
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

func simpleSeeds(tb testing.TB) [][]byte {
	g, a, pairs := codecFixture(tb)
	s, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return encodedSeeds(harvest(tb, s, s.LabelOf, pairs[:16], 8*g.N()), 8)
}

func sfSeeds(tb testing.TB) [][]byte {
	g, a, pairs := codecFixture(tb)
	s, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	return encodedSeeds(harvest(tb, s, s.LabelOf, pairs[:16], 64*g.N()), 12)
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpora from live
// headers. Regenerate with:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	writeFuzzCorpus(t, "FuzzDecodeSimpleHeader", simpleSeeds(t))
	writeFuzzCorpus(t, "FuzzDecodeSFHeader", sfSeeds(t))
}

// fuzzHeaderCodec is the shared property both header fuzzers check: a
// decoder fed arbitrary bytes either rejects them or yields a header
// whose re-encoding is exactly Bits() wide and decodes back to itself.
// It must never panic or over-allocate on hostile input.
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

func FuzzDecodeSimpleHeader(f *testing.F) {
	for _, s := range simpleSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzHeaderCodec(t, data, labeled.DecodeSimpleHeader)
	})
}

func FuzzDecodeSFHeader(f *testing.F) {
	for _, s := range sfSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzHeaderCodec(t, data, labeled.DecodeSFHeader)
	})
}

package gate

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compactrouting/internal/bits"
)

// Header is a packet header with a wire form: Encode writes exactly
// Bits() bits.
type Header interface {
	Bits() int
	Encode(w *bits.Writer)
}

// CheckCodec pins the two codec invariants for each header: the
// encoder emits exactly Bits() bits (so the bit accounting the
// experiments report is the real wire size), and decoding those bits
// reproduces the header with nothing left over.
func CheckCodec[H Header](t testing.TB, hs []H, decode func(*bits.Reader) (H, error)) {
	t.Helper()
	if len(hs) == 0 {
		t.Fatal("no headers harvested")
	}
	for _, h := range hs {
		var w bits.Writer
		h.Encode(&w)
		if w.Len() != h.Bits() {
			t.Fatalf("header %+v: encoded to %d bits, Bits() promises %d", h, w.Len(), h.Bits())
		}
		r := bits.NewReader(w.Bytes(), w.Len())
		got, err := decode(r)
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
		if r.Remaining() != 0 {
			t.Fatalf("decode of %+v left %d bits unread", h, r.Remaining())
		}
	}
}

// FuzzHeaderCodec is the property every header fuzzer checks: a decoder
// fed arbitrary bytes either rejects them or yields a header that
// re-encodes to exactly the bits it consumed (so no two streams decode
// to the same header), is exactly Bits() wide and decodes back to
// itself. It must never panic or over-allocate on hostile input.
func FuzzHeaderCodec[H Header](t *testing.T, data []byte, decode func(*bits.Reader) (H, error)) {
	in := bits.NewReader(data, 8*len(data))
	h, err := decode(in)
	if err != nil {
		return
	}
	consumed := 8*len(data) - in.Remaining()
	var w bits.Writer
	h.Encode(&w)
	if w.Len() != h.Bits() {
		t.Fatalf("decoded header %+v re-encodes to %d bits, Bits() promises %d", h, w.Len(), h.Bits())
	}
	if w.Len() != consumed || !samePrefix(data, w.Bytes(), consumed) {
		t.Fatalf("decode→encode not a fixpoint: header %+v consumed %d bits of %x, re-encodes to %d bits %x",
			h, consumed, data, w.Len(), w.Bytes())
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

// samePrefix reports whether a and b agree on their first n bits.
func samePrefix(a, b []byte, n int) bool {
	ra, rb := bits.NewReader(a, n), bits.NewReader(b, n)
	for ra.Remaining() > 0 {
		k := min(64, ra.Remaining())
		x, _ := ra.ReadBits(k)
		y, _ := rb.ReadBits(k)
		if x != y {
			return false
		}
	}
	return true
}

// EncodedSeeds encodes a stride-spaced sample of at most limit headers,
// giving a fuzzer a corpus of real wire forms to mutate.
func EncodedSeeds[H Header](hs []H, limit int) [][]byte {
	stride := max(1, len(hs)/limit)
	var out [][]byte
	for i := 0; i < len(hs) && len(out) < limit; i += stride {
		var w bits.Writer
		hs[i].Encode(&w)
		out = append(out, w.Bytes())
	}
	return out
}

// nonCanonicalUvarints are the two uvarint forms bits.Reader.ReadUvarint
// refuses, by the seed file each is written to: overlong (a final zero
// group after a continuation byte) and wrapped (a tenth group wider
// than the one bit left in a uint64).
var nonCanonicalUvarints = []struct {
	Name  string
	Bytes []byte
}{
	{"overlong-uvarint", []byte{0x80, 0x00}},
	{"wrapped-uvarint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
}

// WriteFuzzCorpus rewrites testdata/fuzz/<name>/seed-NNN, one file per
// seed, in Go's corpus format.
func WriteFuzzCorpus(t testing.TB, name string, seeds [][]byte) {
	for i, s := range seeds {
		writeSeed(t, name, fmt.Sprintf("seed-%03d", i), s)
	}
}

// WriteNonCanonicalSeeds writes one seed per non-canonical uvarint form
// into testdata/fuzz/<name>: h's encoding with the uvarint at bit
// offset at, which must hold 0 (one canonical zero byte), replaced by
// the form. The rest of the header stays valid, so a decoder that
// accepted the form would decode the seed.
func WriteNonCanonicalSeeds[H Header](t testing.TB, name string, h H, at int) {
	var enc bits.Writer
	h.Encode(&enc)
	for _, form := range nonCanonicalUvarints {
		r := bits.NewReader(enc.Bytes(), enc.Len())
		var w bits.Writer
		copyBits(&w, r, at)
		if zero, err := r.ReadBits(8); zero != 0 || err != nil {
			t.Fatalf("%s: header %+v holds no zero uvarint at bit %d", name, h, at)
		}
		for _, b := range form.Bytes {
			w.WriteBits(uint64(b), 8)
		}
		copyBits(&w, r, r.Remaining())
		writeSeed(t, name, form.Name, w.Bytes())
	}
}

// copyBits moves the next n bits of r to w.
func copyBits(w *bits.Writer, r *bits.Reader, n int) {
	for n > 0 {
		k := min(64, n)
		v, _ := r.ReadBits(k)
		w.WriteBits(v, k)
		n -= k
	}
}

func writeSeed(t testing.TB, name, file string, data []byte) {
	dir := filepath.Join("testdata", "fuzz", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

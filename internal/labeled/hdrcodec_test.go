package labeled_test

import (
	"reflect"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/walk"
)

// harvest collects every header that appears on real walks — the
// Prepare output and each Step rewrite — so the codec invariants are
// checked against the field combinations the schemes actually emit,
// not hand-built samples.
func harvest[H walk.Header](t testing.TB, r walk.Router[H], addr func(int) int, pairs [][2]int, maxHops int) []H {
	t.Helper()
	var out []H
	for _, p := range pairs {
		h, err := r.PrepareHeader(addr(p[1]))
		if err != nil {
			t.Fatalf("Prepare(%d): %v", p[1], err)
		}
		out = append(out, h)
		at := p[0]
		for hops := 0; ; hops++ {
			if hops > maxHops {
				t.Fatalf("pair (%d,%d) exceeded %d hops", p[0], p[1], maxHops)
			}
			next, nh, arrived, err := r.Step(at, h)
			if err != nil {
				t.Fatalf("Step at %d: %v", at, err)
			}
			if arrived {
				break
			}
			out = append(out, nh)
			at, h = next, nh
		}
	}
	return out
}

// checkCodec pins the two codec invariants for each harvested header:
// the encoder emits exactly Bits() bits (so the bit accounting the
// experiments report is the real wire size), and decoding those bits
// reproduces the header with nothing left over.
func checkCodec[H walk.Header](t testing.TB, hs []H, decode func(*bits.Reader) (H, error)) {
	t.Helper()
	if len(hs) == 0 {
		t.Fatal("no headers harvested")
	}
	for _, h := range hs {
		var w bits.Writer
		any(h).(interface{ Encode(*bits.Writer) }).Encode(&w)
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

func codecFixture(t testing.TB) (*graph.Graph, *metric.APSP, [][2]int) {
	t.Helper()
	g, _, err := graph.RandomGeometric(72, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, metric.NewAPSP(g), core.SamplePairs(g.N(), 64, 5)
}

func TestSimpleHeaderCodecMatchesBits(t *testing.T) {
	g, a, pairs := codecFixture(t)
	s, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hs := harvest(t, s, s.LabelOf, pairs, 8*g.N())
	checkCodec(t, hs, labeled.DecodeSimpleHeader)
}

func TestSFHeaderCodecMatchesBits(t *testing.T) {
	g, a, pairs := codecFixture(t)
	s, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	hs := harvest(t, s, s.LabelOf, pairs, 64*g.N())
	checkCodec(t, hs, labeled.DecodeSFHeader)
}

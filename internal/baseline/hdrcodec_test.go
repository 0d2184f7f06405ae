package baseline_test

import (
	"reflect"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/walk"
)

// harvest collects every header that appears on real walks so the codec
// invariants are checked against what the schemes actually emit.
func harvest[H walk.Header](t testing.TB, r walk.Router[H], pairs [][2]int, maxHops int) []H {
	t.Helper()
	var out []H
	for _, p := range pairs {
		h, err := r.PrepareHeader(p[1])
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

// checkCodec pins Writer.Len() == Bits() and a clean decode round trip.
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

func TestDestinationCodecMatchesBits(t *testing.T) {
	g, a, pairs := codecFixture(t)
	s := baseline.NewFullTable(g, a)
	hs := harvest(t, s, pairs, 8*g.N())
	checkCodec(t, hs, baseline.DecodeDestination)
}

func TestTreeHeaderCodecMatchesBits(t *testing.T) {
	g, a, pairs := codecFixture(t)
	_ = a
	s, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := harvest(t, s, pairs, 8*g.N())
	checkCodec(t, hs, baseline.DecodeTreeHeader)
}

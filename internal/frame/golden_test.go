package frame

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"compactrouting/internal/bits"
)

// TestFrameGoldenBytes pins the SHA-256 of one complete frame (header
// plus payload) of each payload type. The payloads mix unaligned bit
// fields, multi-group uvarints, 64-bit float fields and byte strings, so
// any change in how internal/bits lays out a stream fails here.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		name   string
		typ    Type
		encode func(w *bits.Writer)
		want   string
	}{
		{"RouteRequest", TypeRouteRequest, func(w *bits.Writer) {
			q := &RouteRequest{Scheme: 5, Pairs: []Pair{{0, 1}, {127, 128}, {16383, 16384}, {1<<31 - 1, 3}}}
			q.Encode(w)
		}, "1929cb2c127a424109b630f2382c9c2c1fae1993f8fbf99855b8977df734fbfd"},
		{"RouteResponse", TypeRouteResponse, func(w *bits.Writer) {
			p := &RouteResponse{Results: []RouteResult{
				{Status: StatusOK, Cached: true, Hops: 9, MaxHeaderBits: 200, Cost: math.Pi, Optimal: math.E},
				{Status: StatusBadScheme},
				{Status: StatusOK, Hops: 1 << 21, MaxHeaderBits: 0, Cost: math.Inf(1), Optimal: 0.1},
				{Status: StatusRouteFailed, Cached: true, Hops: 3},
				{Status: StatusOK, Hops: 1, MaxHeaderBits: 127, Cost: -0.0, Optimal: math.MaxFloat64},
			}}
			p.Encode(w)
		}, "c385fa30b80c53cc0cfd6beaaaba82be3b41f0562183801ad4dfe19d23d6ee3f"},
		{"SchemesResponse", TypeSchemesResponse, func(w *bits.Writer) {
			p := &SchemesResponse{N: 2048, Generation: 1<<40 + 3, Names: []string{"simple-labeled", "full-table", "x"}}
			p.Encode(w)
		}, "e9b131b82b158d84655cd06cde51d35c99f4c771c1242043b9875da70e678f28"},
		{"Error", TypeError, func(w *bits.Writer) {
			EncodeError(w, "engine: unknown scheme \"nope\"")
		}, "5d104c1e7314c94981a4224857ad2337c00776b1b2117f4e101fd18eaf3924be"},
	}
	for _, tc := range cases {
		var w bits.Writer
		tc.encode(&w)
		frame, err := AppendFrame(nil, tc.typ, 0x0102030405060708, w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s frame (%d bytes) sha256 = %s, want %s", tc.name, len(frame), got, tc.want)
		}
	}
}

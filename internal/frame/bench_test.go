package frame

import (
	"math"
	"testing"

	"compactrouting/internal/bits"
)

// BenchmarkFrameRouteRequest64 measures one encode plus one decode of a
// 64-pair route request through reused buffers, the per-frame codec
// cost a serving connection pays on the request side.
func BenchmarkFrameRouteRequest64(b *testing.B) {
	q := &RouteRequest{Scheme: 2}
	for i := int32(0); i < 64; i++ {
		q.Pairs = append(q.Pairs, Pair{Src: i * 31 % 2048, Dst: (i*977 + 5) % 2048})
	}
	var (
		w   bits.Writer
		r   bits.Reader
		dec RouteRequest
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		q.Encode(&w)
		if err := dec.DecodeInto(w.Bytes(), &r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRouteResponse64 measures one encode plus one decode of
// a 64-result route response (every result OK, so each carries two
// 64-bit float fields at an unaligned offset).
func BenchmarkFrameRouteResponse64(b *testing.B) {
	p := &RouteResponse{}
	for i := 0; i < 64; i++ {
		p.Results = append(p.Results, RouteResult{
			Status: StatusOK, Cached: i%3 == 0, Hops: int32(i%17 + 1), MaxHeaderBits: int32(40 + i),
			Cost: float64(i) * math.Sqrt2, Optimal: float64(i) * 1.25,
		})
	}
	var (
		w   bits.Writer
		r   bits.Reader
		dec RouteResponse
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		p.Encode(&w)
		if err := dec.DecodeInto(w.Bytes(), &r); err != nil {
			b.Fatal(err)
		}
	}
}

package snapshot_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"compactrouting"
	"compactrouting/internal/bits"
	"compactrouting/internal/server"
	"compactrouting/internal/snapshot"
)

// matrixOffset returns the bit offset of the dist matrix in f's
// payload: the width of every field Encode writes before it.
func matrixOffset(f *snapshot.File) int {
	var w bits.Writer
	w.WriteBits(uint64(f.Seed), 64)
	w.WriteBits(math.Float64bits(f.Eps), 64)
	w.WriteBits(0, 8)
	w.WriteUvarint(f.Generation)
	w.WriteUvarint(uint64(f.N))
	w.WriteUvarint(uint64(len(f.Edges)))
	for _, e := range f.Edges {
		w.WriteUvarint(uint64(e.U))
		w.WriteUvarint(uint64(e.V))
		w.WriteBits(math.Float64bits(e.Weight), 64)
	}
	return w.Len()
}

// perValueUvarint reads a varint one 8-bit group at a time through
// ReadBits, the way ReadUvarint did before its byte-aligned path.
func perValueUvarint(r *bits.Reader) (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			return 0, errors.New("bits: uvarint overflows uint64")
		}
		grp, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		v |= grp & 0x7f << shift
		if grp < 0x80 {
			return v, nil
		}
	}
}

// perValueMatrices decodes the n×n matrices at bit off of payload one
// value at a time (ReadBits(64) per distance, perValueUvarint per next
// hop), with Decode's size and range checks: the reference the
// fast-path Decode must match, values and errors alike.
func perValueMatrices(payload []byte, off, n int) ([]float64, []int32, error) {
	r := bits.NewReader(payload, 8*len(payload))
	for k := off; k > 0; k -= 64 {
		if _, err := r.ReadBits(min(k, 64)); err != nil {
			return nil, nil, err
		}
	}
	if n*n*64 > r.Remaining() {
		return nil, nil, errors.New("snapshot: dist matrix exceeds payload")
	}
	dist := make([]float64, n*n)
	for i := range dist {
		db, err := r.ReadBits(64)
		if err != nil {
			return nil, nil, err
		}
		dist[i] = math.Float64frombits(db)
	}
	next := make([]int32, n*n)
	for i := range next {
		h, err := perValueUvarint(r)
		if err != nil {
			return nil, nil, err
		}
		if h > uint64(n) {
			return nil, nil, fmt.Errorf("snapshot: next hop %d out of range", h)
		}
		next[i] = int32(h) - 1
	}
	return dist, next, nil
}

// TestDecodeMatchesPerValueDecode checks the byte-aligned matrix reads
// of Decode against per-value reads of the same bytes: equal matrices
// on a whole dense snapshot, and the same error wherever the payload
// is cut inside the dist or next-hop matrix, one cut inside a varint
// (n=160, so next hops past 126 take two bytes).
func TestDecodeMatchesPerValueDecode(t *testing.T) {
	eng, err := server.New(server.Config{
		Build: func(seed int64) (*compactrouting.Network, error) {
			return compactrouting.GenerateNetwork("geometric", 160, seed, compactrouting.BackendDense)
		},
		Seed:    5,
		Eps:     0.25,
		Schemes: []string{"full-table"},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	off, n := matrixOffset(f), f.N
	if off%8 != 0 {
		t.Fatalf("matrices start at bit %d, not byte-aligned", off)
	}
	const header = 6
	payload := data[header : len(data)-4]
	dist, next, err := perValueMatrices(payload, off, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dist {
		if math.Float64bits(f.Dist[i]) != math.Float64bits(dist[i]) || f.NextHop[i] != next[i] {
			t.Fatalf("entry %d: Decode (%v, %d), per-value (%v, %d)", i, f.Dist[i], f.NextHop[i], dist[i], next[i])
		}
	}

	hopStart := off/8 + 8*n*n
	mid := hopStart // just past the first byte of a two-byte varint
	for payload[mid] < 0x80 {
		mid++
	}
	cuts := []int{off/8 + 8, off/8 + 4*n*n + 3, hopStart, hopStart + 1, mid + 1, hopStart + n*n, hopStart + n*n + 1}
	for _, cut := range cuts {
		trunc := append(append([]byte(nil), data[:header+cut]...), 0, 0, 0, 0)
		_, err := snapshot.Decode(refix(trunc))
		_, _, want := perValueMatrices(payload[:cut], off, n)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("payload cut at byte %d: Decode error %v, per-value %v", cut, err, want)
		}
		if errors.Is(want, bits.ErrOutOfData) != errors.Is(err, bits.ErrOutOfData) {
			t.Fatalf("payload cut at byte %d: Decode error %v does not wrap like %v", cut, err, want)
		}
	}
}

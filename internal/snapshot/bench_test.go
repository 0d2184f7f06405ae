package snapshot_test

import (
	"testing"

	"compactrouting"
	"compactrouting/internal/server"
	"compactrouting/internal/snapshot"
)

// BenchmarkSnapshotDecode measures snapshot.Decode of a 512-node dense
// name-independent snapshot: the n² distance and next-hop matrices plus
// the scheme's table blob, i.e. the codec share of a restore.
func BenchmarkSnapshotDecode(b *testing.B) {
	eng, err := server.New(server.Config{
		Build: func(seed int64) (*compactrouting.Network, error) {
			return compactrouting.GenerateNetwork("geometric", 512, seed, compactrouting.BackendDense)
		},
		Seed:    1,
		Eps:     0.25,
		Schemes: []string{"name-independent"},
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := eng.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

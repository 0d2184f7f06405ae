package snapshot_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"compactrouting"
	"compactrouting/internal/server"
)

// TestSnapshotGoldenBytes pins the SHA-256 of the encoded snapshot of a
// fixed 64-node network with all six schemes compiled, on both distance
// backends. Every table codec, the matrix codec and the outer snapshot
// stream feed these bytes, so a change to internal/bits that alters a
// single bit of any stream fails here. Rewrite a pin only with a
// deliberate format change (and a Version bump).
func TestSnapshotGoldenBytes(t *testing.T) {
	cases := []struct {
		backend compactrouting.Backend
		kind    string
		want    string
	}{
		{compactrouting.BackendDense, "geometric", "01f14590aaebafbcc58eec564dc75dca58fe1ce6de4f1a72cd3dd6775f33e8ee"},
		{compactrouting.BackendLazy, "power-law", "ef71a45b28adfa511fd35d4fe5ca84f756c513a9c4bcf891453476073d01094f"},
	}
	for _, tc := range cases {
		t.Run(string(tc.backend), func(t *testing.T) {
			eng, err := server.New(server.Config{
				Build: func(seed int64) (*compactrouting.Network, error) {
					return compactrouting.GenerateNetwork(tc.kind, 64, seed, tc.backend)
				},
				Seed:    7,
				Eps:     0.25,
				Schemes: server.SchemeNames,
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := f.Encode()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("%s snapshot (%d bytes) sha256 = %s, want %s", tc.backend, len(data), got, tc.want)
			}
		})
	}
}

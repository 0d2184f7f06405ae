package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestGoldenBitAccounting pins the exact space accounting of every
// scheme — the largest routing table and the largest in-flight header,
// in bits — on two fixed networks. Any change to label layouts, header
// codecs, or table construction shows up here as a one-line diff
// before it silently shifts the numbers the experiments report.
//
// Regenerate after an intended change with:
//
//	go test ./internal/exp -run TestGoldenBitAccounting -update
func TestGoldenBitAccounting(t *testing.T) {
	var got bytes.Buffer
	for _, n := range []int{64, 256} {
		e, err := GeometricEnv(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Bench(e, BenchOpts{Eps: 0.25, Pairs: 120, Seed: 7, Trace: true})
		if err != nil {
			t.Fatalf("n=%d: %v", e.G.N(), err)
		}
		for _, r := range recs {
			fmt.Fprintf(&got, "n=%d scheme=%s max_table_bits=%d max_header_bits=%d\n",
				r.N, r.Scheme, r.TableMaxBits, r.MaxHeaderBits)
		}
	}

	path := filepath.Join("testdata", "goldenbits.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with: go test ./internal/exp -run TestGoldenBitAccounting -update): %v", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("bit accounting drifted from golden:\n--- want\n%s--- got\n%s"+
			"If the change is intended, regenerate with: go test ./internal/exp -run TestGoldenBitAccounting -update",
			want, got.Bytes())
	}
}

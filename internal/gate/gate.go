// Package gate is the repository's one recipe for determinism gates,
// imported only by tests. A build is deterministic when what it writes
// is a pure function of its inputs, so a gate compares bytes: the
// caller passes an encoder that runs the build and serializes its
// result (snapshot blobs, table bits, codec output), and Same fails
// unless every GOMAXPROCS of Procs gives the same bytes. State a codec
// does not write, such as a work counter, is appended by the caller as
// an explicit extra (fmt.Appendf with the field's name), so nothing is
// compared by reflecting over private fields.
//
// The package also holds the header-codec test kit the scheme packages
// share (codec.go).
package gate

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Procs are the GOMAXPROCS values every gate compares. 1 puts
// internal/par on its serial reference schedule; 8 runs its
// work-stealing path, and a value above the machine's CPU count still
// interleaves goroutines even on one core.
var Procs = [...]int{1, 8}

// procsMu keeps two gates from changing GOMAXPROCS under each other.
var procsMu sync.Mutex

// WithProcs runs f under GOMAXPROCS n and restores the old value.
// Gates do not nest: f must not call WithProcs or Same.
func WithProcs(n int, f func()) {
	procsMu.Lock()
	defer procsMu.Unlock()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// Same runs encode under each GOMAXPROCS of Procs and fails t unless
// every run returns the bytes the first did; it returns those bytes,
// so a caller can hold them against another axis (a second backend, a
// restored copy, a pinned value).
func Same(t testing.TB, encode func() []byte) []byte {
	t.Helper()
	var want []byte
	for i, n := range Procs {
		var got []byte
		WithProcs(n, func() { got = encode() })
		if i == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d: %s", n, Diff(want, got))
		}
	}
	return want
}

// Diff describes where b first differs from a: the offset and a short
// quoted window of each, enough to read a differing extra.
func Diff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	window := func(s []byte) []byte { return s[max(0, i-16):min(len(s), i+48)] }
	return fmt.Sprintf("bytes differ at offset %d (%d vs %d bytes): %q vs %q", i, len(a), len(b), window(a), window(b))
}

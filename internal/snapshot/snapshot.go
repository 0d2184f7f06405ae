// Package snapshot is the versioned on-disk table-snapshot format of
// the serving plane: everything a routed process needs to answer its
// first query — graph, metric oracle, and every compiled scheme's
// tables — without invoking a single scheme constructor.
//
// File layout:
//
//	offset  size  field
//	0       4     magic "CRSN"
//	4       2     format version, big endian (Version)
//	6       ...   payload (one internal/bits stream, below)
//	end-4   4     CRC32-IEEE over everything before it, big endian
//
// Payload stream: seed (64b) · eps (float64 bits) · backend byte
// (0 = dense, 1 = lazy) · generation (uvarint) · n (uvarint) · edge
// count + (u, v, weight) triples · on the dense backend only, the APSP
// dist matrix (n² float64s) and next-hop matrix (n² uvarints, -1
// stored as 0) · scheme count + per scheme its name and one
// length-prefixed blob holding the scheme codec output (the labeled /
// nameind / baseline EncodeSnapshot wire formats). Lazy-backend
// snapshots carry no matrices: the oracle is rebuilt as an empty
// bounded row cache over the decoded graph, so the scheme tables still
// restore without a single constructor run (the tables are in the
// blobs, not the oracle).
//
// Loads reject version skew at the 2-byte version field (never by
// misparsing), corruption at the checksum, and truncation at every
// length-checked read; FuzzDecodeSnapshot drives Decode plus the full
// scheme-restore path on arbitrary bytes.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit inputs (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"compactrouting"
	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

// Format constants.
const (
	// Version is the snapshot format version this build reads and
	// writes. Any other on-disk version is rejected with ErrVersionSkew.
	// Version 2 added the backend byte and made the matrices
	// dense-backend-only.
	Version = 2
	// maxN bounds the decoded network size (the payload length checks
	// below square it, so the bound also keeps the arithmetic far from
	// overflow).
	maxN = 1 << 20
	// maxSchemes / maxNameLen bound the scheme directory.
	maxSchemes  = 64
	maxNameLen  = 128
	headerBytes = 6
	crcBytes    = 4
)

var magic = [4]byte{'C', 'R', 'S', 'N'}

// SchemeBlob is one scheme's serialized tables: the engine's scheme
// name plus the raw EncodeSnapshot bit stream.
type SchemeBlob struct {
	Name string
	Data []byte
	Bits int
}

// File is a decoded snapshot.
type File struct {
	Seed int64
	Eps  float64
	// Backend is the distance backend the engine was serving on:
	// "dense" (matrices present) or "lazy" (no matrices; the oracle is
	// rebuilt as an empty row cache). Empty encodes as dense.
	Backend    string
	Generation uint64
	N          int
	Edges      []compactrouting.EdgeSpec
	// Dist and NextHop are the dense backend's matrices; nil on lazy.
	Dist    []float64
	NextHop []int32
	Schemes []SchemeBlob
}

// Encode serializes the snapshot to its on-disk byte form, checksum
// included.
func (f *File) Encode() ([]byte, error) {
	if f.N < 1 || f.N > maxN {
		return nil, fmt.Errorf("snapshot: n=%d out of [1, %d]", f.N, maxN)
	}
	var backend byte
	switch f.Backend {
	case "", "dense":
		if len(f.Dist) != f.N*f.N || len(f.NextHop) != f.N*f.N {
			return nil, fmt.Errorf("snapshot: matrices sized %d/%d, want %d", len(f.Dist), len(f.NextHop), f.N*f.N)
		}
	case "lazy":
		backend = 1
		if len(f.Dist) != 0 || len(f.NextHop) != 0 {
			return nil, fmt.Errorf("snapshot: lazy backend carries no matrices (got %d/%d entries)", len(f.Dist), len(f.NextHop))
		}
	default:
		return nil, fmt.Errorf("snapshot: unknown backend %q", f.Backend)
	}
	if len(f.Schemes) > maxSchemes {
		return nil, fmt.Errorf("snapshot: %d schemes exceed cap %d", len(f.Schemes), maxSchemes)
	}
	w := &bits.Writer{}
	w.WriteBits(uint64(f.Seed), 64)
	w.WriteBits(math.Float64bits(f.Eps), 64)
	w.WriteBits(uint64(backend), 8)
	w.WriteUvarint(f.Generation)
	w.WriteUvarint(uint64(f.N))
	w.WriteUvarint(uint64(len(f.Edges)))
	for _, e := range f.Edges {
		w.WriteUvarint(uint64(e.U))
		w.WriteUvarint(uint64(e.V))
		w.WriteBits(math.Float64bits(e.Weight), 64)
	}
	if backend == 0 {
		for _, d := range f.Dist {
			w.WriteBits(math.Float64bits(d), 64)
		}
		for _, h := range f.NextHop {
			w.WriteUvarint(uint64(h + 1))
		}
	}
	w.WriteUvarint(uint64(len(f.Schemes)))
	for _, sb := range f.Schemes {
		if len(sb.Name) == 0 || len(sb.Name) > maxNameLen {
			return nil, fmt.Errorf("snapshot: bad scheme name %q", sb.Name)
		}
		w.WriteUvarint(uint64(len(sb.Name)))
		for i := 0; i < len(sb.Name); i++ {
			w.WriteBits(uint64(sb.Name[i]), 8)
		}
		w.WriteBlob(sb.Data, sb.Bits)
	}
	body := w.Bytes()
	out := make([]byte, 0, headerBytes+len(body)+crcBytes)
	out = append(out, magic[:]...)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// Decode parses and validates an on-disk snapshot: magic, version,
// checksum, then every length- and range-checked payload field.
func Decode(data []byte) (*File, error) {
	if len(data) < headerBytes+crcBytes {
		return nil, fmt.Errorf("snapshot: truncated file: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:4])
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d: rebuild the snapshot", v, Version)
	}
	stored := binary.BigEndian.Uint32(data[len(data)-crcBytes:])
	if got := crc32.ChecksumIEEE(data[:len(data)-crcBytes]); got != stored {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file %08x, computed %08x): corrupt snapshot", stored, got)
	}
	payload := data[headerBytes : len(data)-crcBytes]
	r := bits.NewReader(payload, 8*len(payload))
	f := &File{}
	seed, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	f.Seed = int64(seed)
	eb, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	f.Eps = math.Float64frombits(eb)
	bk, err := r.ReadBits(8)
	if err != nil {
		return nil, err
	}
	switch bk {
	case 0:
		f.Backend = "dense"
	case 1:
		f.Backend = "lazy"
	default:
		return nil, fmt.Errorf("snapshot: unknown backend byte %d", bk)
	}
	if f.Generation, err = r.ReadUvarint(); err != nil {
		return nil, err
	}
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("snapshot: n=%d out of [1, %d]", n, maxN)
	}
	f.N = int(n)
	m, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	// An edge costs at least two 8-bit uvarints plus a 64-bit weight.
	// (Divide, never multiply: a hostile count must not overflow.)
	if m > uint64(r.Remaining())/80 {
		return nil, fmt.Errorf("snapshot: edge count %d exceeds payload", m)
	}
	f.Edges = make([]compactrouting.EdgeSpec, m)
	for i := range f.Edges {
		u, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if u >= n || v >= n {
			return nil, fmt.Errorf("snapshot: edge %d endpoint out of range", i)
		}
		wb, err := r.ReadBits(64)
		if err != nil {
			return nil, err
		}
		f.Edges[i] = compactrouting.EdgeSpec{U: int(u), V: int(v), Weight: math.Float64frombits(wb)}
	}
	if bk == 0 {
		if n*n*64 > uint64(r.Remaining()) {
			return nil, fmt.Errorf("snapshot: dist matrix exceeds payload")
		}
		// Every field before the matrices is a whole number of bytes,
		// so in a well-formed file both matrices start byte-aligned
		// and ReadWords and ReadUvarint read them as whole bytes.
		f.Dist = make([]float64, n*n)
		var words [512]uint64
		for i := 0; i < len(f.Dist); i += len(words) {
			chunk := words[:min(len(words), len(f.Dist)-i)]
			if err := r.ReadWords(chunk); err != nil {
				return nil, err
			}
			for k, db := range chunk {
				f.Dist[i+k] = math.Float64frombits(db)
			}
		}
		f.NextHop = make([]int32, n*n)
		for i := range f.NextHop {
			h, err := r.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if h > n {
				return nil, fmt.Errorf("snapshot: next hop %d out of range", h)
			}
			f.NextHop[i] = int32(h) - 1
		}
	}
	sc, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if sc > maxSchemes {
		return nil, fmt.Errorf("snapshot: %d schemes exceed cap %d", sc, maxSchemes)
	}
	f.Schemes = make([]SchemeBlob, 0, sc)
	seen := make(map[string]bool, sc)
	for i := uint64(0); i < sc; i++ {
		nl, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if nl == 0 || nl > maxNameLen || nl*8 > uint64(r.Remaining()) {
			return nil, fmt.Errorf("snapshot: bad scheme name length %d", nl)
		}
		nameBuf := make([]byte, nl)
		for j := range nameBuf {
			b, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			nameBuf[j] = byte(b)
		}
		name := string(nameBuf)
		if seen[name] {
			return nil, fmt.Errorf("snapshot: duplicate scheme %q", name)
		}
		seen[name] = true
		blob, nbit, err := r.ReadBlob()
		if err != nil {
			return nil, fmt.Errorf("snapshot: scheme %q blob: %w", name, err)
		}
		f.Schemes = append(f.Schemes, SchemeBlob{Name: name, Data: blob, Bits: nbit})
	}
	if rem := r.Remaining(); rem >= 8 {
		return nil, fmt.Errorf("snapshot: %d trailing payload bits", rem)
	}
	for r.Remaining() > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if b {
			return nil, fmt.Errorf("snapshot: non-zero padding bit")
		}
	}
	return f, nil
}

// Save writes the snapshot to path (atomically via a sibling temp file,
// so a crash mid-write never leaves a half snapshot behind).
func Save(path string, f *File) error {
	data, err := f.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads and decodes a snapshot from path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return f, nil
}

// Network rebuilds the served network from the snapshot: the graph via
// the validating Builder, and the metric oracle without a Dijkstra
// re-run — RestoreAPSP over the stored matrices on the dense backend,
// or a fresh empty row cache on the lazy backend (whose whole point is
// that the oracle holds no precomputed state worth serializing).
func (f *File) Network() (*compactrouting.Network, error) {
	b := graph.NewBuilder(f.N)
	for _, e := range f.Edges {
		if err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var a metric.Distancer
	if f.Backend == "lazy" {
		a = metric.NewLazyOracle(g)
	} else {
		a, err = metric.RestoreAPSP(f.N, f.Dist, f.NextHop)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	return compactrouting.RestoreNetwork(g, a), nil
}

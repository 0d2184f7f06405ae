package bits

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %v, want %v", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrOutOfData {
		t.Fatalf("read past end: err = %v, want ErrOutOfData", err)
	}
}

func TestWriteReadBits(t *testing.T) {
	cases := []struct {
		v uint64
		n int
	}{
		{0, 0}, {0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{1<<64 - 1, 64}, {1 << 63, 64}, {0xdeadbeef, 32},
	}
	var w Writer
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("ReadBits(%d): %v", c.n, err)
		}
		if got != c.v {
			t.Fatalf("ReadBits(%d) = %d, want %d", c.n, got, c.v)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits(_, 65) did not panic")
		}
	}()
	var w Writer
	w.WriteBits(0, 65)
}

func TestUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteUvarint(v)
		if w.Len() != UvarintLen(v) {
			return false
		}
		r := NewReader(w.Bytes(), w.Len())
		got, err := r.ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			v = 1
		}
		var w Writer
		w.WriteGamma(v)
		if w.Len() != GammaLen(v) {
			return false
		}
		r := NewReader(w.Bytes(), w.Len())
		got, err := r.ReadGamma()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaKnownCodes(t *testing.T) {
	// gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100".
	lens := map[uint64]int{1: 1, 2: 3, 3: 3, 4: 5, 7: 5, 8: 7}
	for v, want := range lens {
		if got := GammaLen(v); got != want {
			t.Errorf("GammaLen(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteGamma(0) did not panic")
		}
	}()
	var w Writer
	w.WriteGamma(0)
}

func TestMixedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type op struct {
		kind int
		v    uint64
		n    int
	}
	ops := make([]op, 500)
	var w Writer
	for i := range ops {
		o := op{kind: rng.Intn(4)}
		switch o.kind {
		case 0:
			o.v = uint64(rng.Intn(2))
			w.WriteBit(o.v == 1)
		case 1:
			o.n = rng.Intn(65)
			o.v = rng.Uint64()
			if o.n < 64 {
				o.v &= 1<<uint(o.n) - 1
			}
			w.WriteBits(o.v, o.n)
		case 2:
			o.v = rng.Uint64() >> uint(rng.Intn(64))
			w.WriteUvarint(o.v)
		case 3:
			o.v = rng.Uint64()>>uint(rng.Intn(64)) | 1
			w.WriteGamma(o.v)
		}
		ops[i] = o
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, o := range ops {
		var got uint64
		var err error
		switch o.kind {
		case 0:
			var b bool
			b, err = r.ReadBit()
			if b {
				got = 1
			}
		case 1:
			got, err = r.ReadBits(o.n)
		case 2:
			got, err = r.ReadUvarint()
		case 3:
			got, err = r.ReadGamma()
		}
		if err != nil {
			t.Fatalf("op %d (kind %d): %v", i, o.kind, err)
		}
		if got != o.v {
			t.Fatalf("op %d (kind %d) = %d, want %d", i, o.kind, got, o.v)
		}
	}
}

func TestUintBits(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := UintBits(c.n); got != c.want {
			t.Errorf("UintBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestReaderTruncated(t *testing.T) {
	var w Writer
	w.WriteUvarint(1 << 40)
	r := NewReader(w.Bytes(), w.Len()-3)
	if _, err := r.ReadUvarint(); err == nil {
		t.Fatal("truncated uvarint read succeeded")
	}
	var w2 Writer
	w2.WriteGamma(1 << 30)
	r2 := NewReader(w2.Bytes(), 5)
	if _, err := r2.ReadGamma(); err == nil {
		t.Fatal("truncated gamma read succeeded")
	}
}

func TestUvarintRefusesNonCanonical(t *testing.T) {
	// WriteUvarint never writes a zero final group after a continuation
	// (overlong) or a tenth group wider than one bit (wrapped), so
	// ReadUvarint refuses both, at a byte-aligned position and off it.
	wrapped := append(bytes.Repeat([]byte{0xff}, 9), 0x7f)
	top := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	cases := []struct {
		name string
		enc  []byte
		want error
	}{
		{"overlong zero", []byte{0x80, 0x00}, errUvarintOverlong},
		{"overlong one", []byte{0x81, 0x80, 0x00}, errUvarintOverlong},
		{"wrapped", wrapped, errUvarintOverflow},
		{"eleven groups", append(bytes.Repeat([]byte{0xff}, 10), 0x01), errUvarintOverflow},
	}
	for _, c := range cases {
		for _, off := range []int{0, 3} {
			var w Writer
			w.WriteBits(0, off)
			for _, b := range c.enc {
				w.WriteBits(uint64(b), 8)
			}
			r := NewReader(w.Bytes(), w.Len())
			if _, err := r.ReadBits(off); err != nil {
				t.Fatal(err)
			}
			if v, err := r.ReadUvarint(); err != c.want {
				t.Errorf("%s at offset %d: got (%d, %v), want %v", c.name, off, v, err, c.want)
			}
		}
	}
	// The largest canonical value still reads: its tenth group is 1.
	if v, err := NewReader(top, 8*len(top)).ReadUvarint(); err != nil || v != math.MaxUint64 {
		t.Fatalf("ff×9 01: got (%d, %v), want MaxUint64", v, err)
	}
}

// refWriter is the bit-at-a-time writer the word-window codec must
// match byte for byte: every fast path in Writer is checked against it
// by TestCodecMatchesReference and FuzzBitsCodec.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

func (w *refWriter) writeBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

func (w *refWriter) writeBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.writeBit(v>>uint(i)&1 == 1)
	}
}

func (w *refWriter) writeUvarint(v uint64) {
	for v >= 0x80 {
		w.writeBits(1, 1)
		w.writeBits(v&0x7f, 7)
		v >>= 7
	}
	w.writeBits(0, 1)
	w.writeBits(v, 7)
}

func (w *refWriter) writeGamma(v uint64) {
	n := 64
	for v>>uint(n-1)&1 == 0 {
		n--
	}
	for i := 0; i < n-1; i++ {
		w.writeBit(false)
	}
	w.writeBits(v, n)
}

func (w *refWriter) writeBlob(buf []byte, nbit int) {
	w.writeUvarint(uint64(nbit))
	for k := 0; k < nbit; k++ {
		w.writeBit(buf[k/8]>>uint(7-k%8)&1 == 1)
	}
}

// refReader is the bit-at-a-time reader Reader must match: the same
// values, the same errors and the same position after every call,
// including short reads (which consume the rest of the stream).
type refReader struct {
	buf       []byte
	pos, nbit int
}

func (r *refReader) remaining() int { return r.nbit - r.pos }

func (r *refReader) readBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOutOfData
	}
	b := r.buf[r.pos/8]>>uint(7-r.pos%8)&1 == 1
	r.pos++
	return b, nil
}

func (r *refReader) readBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: ReadBits width %d out of range", n)
	}
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

func (r *refReader) readUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			return 0, errors.New("bits: uvarint overflows uint64")
		}
		cont, err := r.readBit()
		if err != nil {
			return 0, err
		}
		grp, err := r.readBits(7)
		if err != nil {
			return 0, err
		}
		if !cont {
			// The strict contract: a zero final group after a
			// continuation is overlong, and a tenth group carries one
			// bit at most.
			if grp == 0 && shift > 0 {
				return 0, errors.New("bits: overlong uvarint")
			}
			if shift == 63 && grp > 1 {
				return 0, errors.New("bits: uvarint overflows uint64")
			}
			return v | grp<<shift, nil
		}
		v |= grp << shift
	}
}

func (r *refReader) readGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, errors.New("bits: gamma code too long")
		}
	}
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

func (r *refReader) readBlob() ([]byte, int, error) {
	nbit, err := r.readUvarint()
	if err != nil {
		return nil, 0, err
	}
	if nbit > uint64(r.remaining()) {
		return nil, 0, fmt.Errorf("bits: blob of %d bits exceeds stream", nbit)
	}
	n := int(nbit)
	buf := make([]byte, (n+7)/8)
	for k := 0; k < n; k++ {
		b, err := r.readBit()
		if err != nil {
			return nil, 0, err
		}
		if b {
			buf[k/8] |= 1 << uint(7-k%8)
		}
	}
	return buf, n, nil
}

// script turns arbitrary bytes into codec operations; reads past the
// end yield zeros, so every byte string is a valid script.
type script struct {
	data []byte
	pos  int
}

func (s *script) done() bool { return s.pos >= len(s.data) }

func (s *script) byte() byte {
	if s.done() {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

func (s *script) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// Codec operation kinds shared by the write and read sides.
const (
	opBit = iota
	opBits
	opUvarint
	opGamma
	opBlob
	opReset // write side only
	opWords // read side only: ReadWords of n words
)

// codecOp is one operation; on the read side n is the ReadBits width
// (the word count for ReadWords) and v (or blob) the value the written
// stream should yield. ReadWords values travel as their big-endian
// bytes in blob.
type codecOp struct {
	kind int
	v    uint64
	n    int
	blob []byte
}

// nextOp draws the next operation from s. Widths cover 0..64 on the
// write side; on the read side they also cover the invalid -1 and 65.
func nextOp(s *script, write bool) codecOp {
	b := s.byte()
	var o codecOp
	switch {
	case b < 0x20:
		o = codecOp{kind: opBit, v: uint64(s.byte() & 1)}
	case b < 0x70:
		if write {
			o = codecOp{kind: opBits, n: int(s.byte() % 65), v: s.u64()}
		} else {
			o = codecOp{kind: opBits, n: int(s.byte()%67) - 1}
		}
	case b < 0x98:
		o = codecOp{kind: opUvarint, v: s.u64() >> (s.byte() % 64)}
	case b < 0xc0:
		o = codecOp{kind: opGamma, v: s.u64() >> (s.byte() % 64)}
		if o.v == 0 {
			o.v = 1
		}
	case b < 0xf0 || (!write && b < 0xf8):
		o = codecOp{kind: opBlob, n: int(s.byte()) * 3}
		seed := s.byte()
		// Extra bytes past the payload and stray low bits in its last
		// byte must both be ignored by WriteBlob.
		o.blob = make([]byte, (o.n+7)/8+int(seed%3))
		for i := range o.blob {
			o.blob[i] = byte(i*151) ^ seed
		}
	case !write:
		o = codecOp{kind: opWords, n: int(s.byte() % 9)}
	default:
		o = codecOp{kind: opReset}
	}
	return o
}

// wordBytes is the big-endian byte form of words.
func wordBytes(words []uint64) []byte {
	out := make([]byte, 0, 8*len(words))
	for _, w := range words {
		out = binary.BigEndian.AppendUint64(out, w)
	}
	return out
}

// diffWrite applies ops to a Writer and a refWriter and fails at the
// first op after which their bytes or lengths differ.
func diffWrite(t testing.TB, w *Writer, ref *refWriter, ops []codecOp) {
	t.Helper()
	for i, o := range ops {
		switch o.kind {
		case opBit:
			w.WriteBit(o.v == 1)
			ref.writeBit(o.v == 1)
		case opBits:
			w.WriteBits(o.v, o.n)
			ref.writeBits(o.v, o.n)
		case opUvarint:
			w.WriteUvarint(o.v)
			ref.writeUvarint(o.v)
		case opGamma:
			w.WriteGamma(o.v)
			ref.writeGamma(o.v)
		case opBlob:
			w.WriteBlob(o.blob, o.n)
			ref.writeBlob(o.blob, o.n)
		case opReset:
			w.Reset()
			ref.reset()
		}
		if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("op %d %+v: writer at %d bits % x, reference at %d bits % x",
				i, o, w.Len(), w.Bytes(), ref.nbit, ref.buf)
		}
	}
}

// diffRead runs ops against a Reader and a refReader over the first
// nbit bits of buf, failing at the first op whose value, error or
// Remaining() differs. It returns the values read (blobs as payloads),
// for round-trip checks by the caller.
func diffRead(t testing.TB, buf []byte, nbit int, ops []codecOp) []codecOp {
	t.Helper()
	r := NewReader(buf, nbit)
	ref := &refReader{buf: buf, nbit: nbit}
	got := make([]codecOp, len(ops))
	for i, o := range ops {
		var (
			v, rv       uint64
			err, rerr   error
			blob, rblob []byte
			n, rn       int
		)
		switch o.kind {
		case opBit:
			var b, rb bool
			b, err = r.ReadBit()
			rb, rerr = ref.readBit()
			if b {
				v = 1
			}
			if rb {
				rv = 1
			}
		case opBits:
			v, err = r.ReadBits(o.n)
			rv, rerr = ref.readBits(o.n)
			n, rn = o.n, o.n
		case opUvarint:
			v, err = r.ReadUvarint()
			rv, rerr = ref.readUvarint()
		case opGamma:
			v, err = r.ReadGamma()
			rv, rerr = ref.readGamma()
		case opBlob:
			blob, n, err = r.ReadBlob()
			rblob, rn, rerr = ref.readBlob()
		case opWords:
			words, rwords := make([]uint64, o.n), make([]uint64, o.n)
			err = r.ReadWords(words)
			for k := range rwords {
				if rwords[k], rerr = ref.readBits(64); rerr != nil {
					break
				}
			}
			blob, rblob = wordBytes(words), wordBytes(rwords)
			n, rn = o.n, o.n
		}
		if fmt.Sprint(err) != fmt.Sprint(rerr) || errors.Is(err, ErrOutOfData) != errors.Is(rerr, ErrOutOfData) {
			t.Fatalf("op %d %+v over %d bits: err %v, reference %v", i, o, nbit, err, rerr)
		}
		if v != rv || n != rn || !bytes.Equal(blob, rblob) {
			t.Fatalf("op %d %+v over %d bits: read (%d, %d, % x), reference (%d, %d, % x)",
				i, o, nbit, v, n, blob, rv, rn, rblob)
		}
		if r.Remaining() != ref.remaining() {
			t.Fatalf("op %d %+v over %d bits: Remaining %d, reference %d", i, o, nbit, r.Remaining(), ref.remaining())
		}
		got[i] = codecOp{kind: o.kind, v: v, n: n, blob: blob}
	}
	return got
}

// readBack maps written ops to the reads that decode them, with the
// values those reads must return. A run of two or more 64-bit writes
// is read back by one ReadWords.
func readBack(ops []codecOp) []codecOp {
	var out []codecOp
	for i, o := range ops {
		switch o.kind {
		case opReset:
			out = out[:0]
		case opBits:
			v := o.v
			if o.n < 64 {
				v &= 1<<uint(o.n) - 1
			}
			if o.n == 64 && i > 0 && ops[i-1].kind == opBits && ops[i-1].n == 64 {
				last := &out[len(out)-1]
				if last.kind == opBits {
					*last = codecOp{kind: opWords, n: 1, blob: wordBytes([]uint64{last.v})}
				}
				last.n++
				last.blob = binary.BigEndian.AppendUint64(last.blob, v)
				continue
			}
			out = append(out, codecOp{kind: opBits, v: v, n: o.n})
		case opBlob:
			blob := append([]byte(nil), o.blob[:(o.n+7)/8]...)
			if rem := o.n % 8; rem > 0 {
				blob[len(blob)-1] &^= 0xff >> uint(rem)
			}
			out = append(out, codecOp{kind: opBlob, n: o.n, blob: blob})
		default:
			out = append(out, o)
		}
	}
	return out
}

// runCodecScript is the differential check behind the property test
// and FuzzBitsCodec. It writes the ops data encodes through both
// writers (Resets included, so later writes land on a dirty buffer),
// reads the stream back through both readers, checking every value,
// re-reads it truncated at a scripted bit count, and finally runs
// scripted reads over data itself, a stream that is mostly garbage.
// Each stream is handed over in a buffer of exactly ceil(nbit/8)
// bytes, so reads near the end take the short-buffer paths.
func runCodecScript(t testing.TB, data []byte) {
	t.Helper()
	s := &script{data: data}
	var wops []codecOp
	for !s.done() && len(wops) < 256 {
		wops = append(wops, nextOp(s, true))
	}
	var (
		w   Writer
		ref refWriter
	)
	diffWrite(t, &w, &ref, wops)

	want := readBack(wops)
	got := diffRead(t, w.Bytes(), w.Len(), want)
	for i := range want {
		if got[i].v != want[i].v || got[i].n != want[i].n || !bytes.Equal(got[i].blob, want[i].blob) {
			t.Fatalf("read back op %d: got %+v, wrote %+v", i, got[i], want[i])
		}
	}
	if cut := int(s.u64() % uint64(w.Len()+1)); cut > 0 {
		nbit := w.Len() - cut
		diffRead(t, w.Bytes()[:(nbit+7)/8], nbit, want)
	}

	rs := &script{data: data}
	var rops []codecOp
	for !rs.done() && len(rops) < 256 {
		rops = append(rops, nextOp(rs, false))
	}
	nbit := 8 * len(data)
	if len(data) > 0 {
		nbit -= int(data[0] % 8)
	}
	diffRead(t, data[:(nbit+7)/8], nbit, rops)
}

// TestCodecMatchesReference drives runCodecScript with random scripts,
// then checks ReadBits exhaustively at every width and start offset
// on short streams, where the 8-byte window does not fit, ReadGamma at
// every start offset on zero runs longer than a window, and ReadWords
// and ReadUvarint at every start offset, byte-aligned or not, over
// streams whose tails cut words and varints short.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		runCodecScript(t, data)
	}
	for size := 0; size <= 17; size++ {
		buf := make([]byte, size)
		rng.Read(buf)
		for nbit := 8*size - 7; nbit <= 8*size; nbit++ {
			if nbit < 0 {
				continue
			}
			for start := 0; start <= nbit; start++ {
				var skip []codecOp
				for k := start; k > 0; k -= 64 {
					skip = append(skip, codecOp{kind: opBits, n: min(k, 64)})
				}
				for n := 0; n <= 64; n++ {
					diffRead(t, buf, nbit, append(skip[:len(skip):len(skip)], codecOp{kind: opBits, n: n}, codecOp{kind: opGamma}))
				}
			}
		}
	}
	for size := 1; size <= 24; size++ {
		zero := make([]byte, size)
		last := make([]byte, size)
		last[size-1] = 1
		for start := 0; start < 8*size; start++ {
			skip := []codecOp{{kind: opBits, n: start % 64}}
			for k := start / 64; k > 0; k-- {
				skip = append(skip, codecOp{kind: opBits, n: 64})
			}
			for _, buf := range [][]byte{zero, last} {
				diffRead(t, buf, 8*size, append(skip[:len(skip):len(skip)], codecOp{kind: opGamma}, codecOp{kind: opGamma}))
			}
		}
	}
	// An all-ones stream is one endless varint, so aligned and
	// unaligned starts both reach the overflow error.
	ones := bytes.Repeat([]byte{0xff}, 33)
	for _, size := range []int{0, 1, 8, 9, 17, 33} {
		buf := make([]byte, size)
		rng.Read(buf)
		for _, src := range [][]byte{buf, ones[:size]} {
			for nbit := max(8*size-9, 0); nbit <= 8*size; nbit++ {
				for start := 0; start <= nbit; start++ {
					var skip []codecOp
					for k := start; k > 0; k -= 64 {
						skip = append(skip, codecOp{kind: opBits, n: min(k, 64)})
					}
					skip = skip[:len(skip):len(skip)]
					for words := 0; words <= 5; words++ {
						diffRead(t, src[:(nbit+7)/8], nbit, append(skip, codecOp{kind: opWords, n: words}, codecOp{kind: opUvarint}, codecOp{kind: opWords, n: 1}))
					}
					diffRead(t, src[:(nbit+7)/8], nbit, append(skip, codecOp{kind: opUvarint}, codecOp{kind: opUvarint}))
				}
			}
		}
	}
}

// corpusScripts seeds FuzzBitsCodec: one op of each kind, a script
// with Resets, and random scripts long enough to cross many windows.
func corpusScripts() [][]byte {
	rng := rand.New(rand.NewSource(7))
	out := [][]byte{
		{},
		{0x00, 0x01},
		{0x40, 40, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67},
		{0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00},
		{0xa0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x34, 0x05},
		{0xc0, 0x55, 0x09, 0x40, 0x07, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
		{0x00, 0x01, 0xc0, 0x21, 0x33, 0xf5, 0x40, 64, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, size := range []int{64, 256, 1024} {
		data := make([]byte, size)
		rng.Read(data)
		out = append(out, data)
	}
	// 256 ops of 64-bit writes with a varint every eighth op (the last
	// four ops are words),
	// byte-aligned and then one bit off, read back through ReadWords and
	// the aligned varint path, then re-read with the last `cut` bits
	// gone (the 8 script bytes after the ops); and garbage reads with
	// ReadWords ops (0xf8 and up on the read side).
	words := func(lead []byte, cut byte) []byte {
		out := append([]byte(nil), lead...)
		for k := len(lead) / 2; k < 256; k++ {
			if k%8 == 3 {
				out = append(out, 0x80, byte(k), 0x81, 1, 2, 3, 4, 5, 6, byte(k))
			} else {
				out = append(out, 0x40, 64, byte(k), 1, 2, 3, 4, 5, 6, 7)
			}
		}
		return append(out, 0, 0, 0, 0, 0, 0, 0, cut)
	}
	out = append(out,
		words(nil, 5),
		words([]byte{0x00, 0x01}, 37),
		[]byte{0xf8, 3, 0xf9, 0, 0x80, 0x01, 0xfa, 8, 0x00, 0x01, 0xfb, 2, 0xfc, 5, 0x40, 7, 0xfd, 1, 0xfe, 4, 0xff, 8,
			0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xf8, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	)
	return out
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus. Regenerate:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBitsCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range corpusScripts() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzBitsCodec holds Writer and Reader to the bit-at-a-time reference
// on arbitrary op scripts (see runCodecScript).
func FuzzBitsCodec(f *testing.F) {
	for _, data := range corpusScripts() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runCodecScript(t, data)
	})
}

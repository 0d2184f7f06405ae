// Package bits provides bit-granular encoding primitives used to account
// for the exact serialized size, in bits, of routing tables, labels, and
// packet headers.
//
// Compact-routing results are stated in bits of storage per node and bits
// per packet header. To keep those claims honest, every table and header
// in this repository is serializable through a Writer and readable back
// through a Reader; the experiments report Writer.Len() values rather
// than Go in-memory sizes.
//
// Streams are most-significant-bit first and zero-padded to a byte
// boundary. The codec moves whole bytes and 64-bit words rather than
// single bits: Writer fills up to 8 bits of the last byte per step, and
// Reader loads a big-endian 64-bit window whenever 8 bytes of buffer
// remain, falling back to byte chunks near the end. At a byte-aligned
// position, uvarints and runs of 64-bit words (ReadWords) are read as
// whole bytes straight from the buffer. Every stream is
// bit-identical to the one a bit-at-a-time codec would produce (pinned
// against such a reference by FuzzBitsCodec).
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOutOfData is returned by Reader methods when the underlying stream
// has fewer bits remaining than the caller requested.
var ErrOutOfData = errors.New("bits: read past end of stream")

// Writer accumulates a bit stream. The zero value is an empty writer
// ready for use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the accumulated stream padded with zero bits to a byte
// boundary. The returned slice aliases the writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteBits width %d out of range", n))
	}
	for n > 0 {
		off := w.nbit % 8
		if off == 0 {
			// A fresh byte is appended as zero, never resliced: Reset
			// keeps the old bytes in the buffer's capacity.
			w.buf = append(w.buf, 0)
		}
		take := min(8-off, n)
		n -= take
		chunk := byte(v>>uint(n)) & (byte(1)<<uint(take) - 1)
		w.buf[w.nbit/8] |= chunk << uint(8-off-take)
		w.nbit += take
	}
}

// WriteUvarint appends v using a 7-bit-group varint (8 bits per group,
// continuation bit first). It always writes a multiple of 8 bits.
func (w *Writer) WriteUvarint(v uint64) {
	for v >= 0x80 {
		w.WriteBits(0x80|v&0x7f, 8)
		v >>= 7
	}
	w.WriteBits(v, 8)
}

// WriteGamma appends v >= 1 in Elias gamma code: floor(log2 v) zero bits,
// then the binary representation of v (which starts with a 1 bit).
// Gamma coding uses 2*floor(log2 v)+1 bits; it is the code used for
// light-edge port numbers in tree-routing labels, where the sum of code
// lengths telescopes.
func (w *Writer) WriteGamma(v uint64) {
	if v == 0 {
		panic("bits: WriteGamma requires v >= 1")
	}
	n := bits.Len64(v) // position of the highest set bit, 1-based
	w.WriteBits(0, n-1)
	w.WriteBits(v, n)
}

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf  []byte
	pos  int // next bit to read
	nbit int // total valid bits
}

// NewReader returns a Reader over the first nbit bits of buf.
func NewReader(buf []byte, nbit int) *Reader {
	return &Reader{buf: buf, nbit: nbit}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOutOfData
	}
	b := r.buf[r.pos/8]>>uint(7-r.pos%8)&1 == 1
	r.pos++
	return b, nil
}

// ReadBits consumes n bits and returns them as the low bits of a uint64,
// most significant first. n must be in [0, 64]. A read of more bits
// than remain consumes the rest of the stream and returns ErrOutOfData.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: ReadBits width %d out of range", n)
	}
	if n > r.nbit-r.pos {
		r.pos = r.nbit
		return 0, ErrOutOfData
	}
	if n > 56 {
		hi := r.peek(n - 32)
		r.pos += n - 32
		lo := r.peek(32)
		r.pos += 32
		return hi<<32 | lo, nil
	}
	v := r.peek(n)
	r.pos += n
	return v, nil
}

// peek returns the n <= 56 bits at the read position without consuming
// them; the caller guarantees they are within the stream. With 8 bytes
// of buffer left it is one big-endian 64-bit load, which holds at least
// 57 bits from any bit offset; nearer the end it gathers byte chunks.
func (r *Reader) peek(n int) uint64 {
	if n == 0 {
		return 0
	}
	i := r.pos / 8
	if i+8 <= len(r.buf) {
		return binary.BigEndian.Uint64(r.buf[i:]) << uint(r.pos%8) >> uint(64-n)
	}
	var v uint64
	for pos := r.pos; n > 0; {
		off := pos % 8
		take := min(8-off, n)
		v = v<<uint(take) | uint64(r.buf[pos/8]<<uint(off)>>uint(8-take))
		pos += take
		n -= take
	}
	return v
}

// ReadWords consumes len(dst) 64-bit values, as len(dst) calls of
// ReadBits(64) would: at a byte-aligned position each value is one
// big-endian load straight from the buffer, elsewhere it is one
// ReadBits(64). A stream shorter than dst fills the prefix of whole
// values that remain, consumes the rest of the stream and returns
// ErrOutOfData.
func (r *Reader) ReadWords(dst []uint64) error {
	if r.pos%8 != 0 {
		for i := range dst {
			v, err := r.ReadBits(64)
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	}
	k := min(len(dst), (r.nbit-r.pos)/64)
	src := r.buf[r.pos/8 : r.pos/8+8*k]
	for i := range dst[:k] {
		dst[i] = binary.BigEndian.Uint64(src[8*i:])
	}
	r.pos += 64 * k
	if k < len(dst) {
		r.pos = r.nbit
		return ErrOutOfData
	}
	return nil
}

var (
	errUvarintOverflow = errors.New("bits: uvarint overflows uint64")
	errUvarintOverlong = errors.New("bits: overlong uvarint")
)

// ReadUvarint consumes a varint written by WriteUvarint, and only the
// canonical form WriteUvarint writes: a final zero group after a
// continuation (overlong) and a tenth group wider than the one bit
// left in a uint64 (wrapped) are refused, so every accepted varint
// re-encodes to exactly the bits it came from. At a byte-aligned
// position every group is a whole byte of the buffer, so it reads
// bytes directly; elsewhere each group is one ReadBits(8).
func (r *Reader) ReadUvarint() (uint64, error) {
	if r.pos%8 == 0 {
		return r.readAlignedUvarint()
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			return 0, errUvarintOverflow
		}
		grp, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		if grp < 0x80 {
			return lastGroup(v, grp, shift)
		}
		v |= grp & 0x7f << shift
	}
}

// readAlignedUvarint is ReadUvarint at a byte-aligned position, with
// the same results, errors and final position: a group needs 8 whole
// bits of stream, and a short one consumes the rest of the stream.
func (r *Reader) readAlignedUvarint() (uint64, error) {
	i, end := r.pos/8, r.nbit/8
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			r.pos = 8 * i
			return 0, errUvarintOverflow
		}
		if i >= end {
			r.pos = r.nbit
			return 0, ErrOutOfData
		}
		grp := r.buf[i]
		i++
		if grp < 0x80 {
			r.pos = 8 * i
			return lastGroup(v, uint64(grp), shift)
		}
		v |= uint64(grp&0x7f) << shift
	}
}

// lastGroup adds a varint's final group grp, at bit offset shift, to
// the value v of the groups before it, refusing the two non-canonical
// forms: a zero final group after a continuation, and a tenth group
// wider than one bit.
func lastGroup(v, grp uint64, shift uint) (uint64, error) {
	switch {
	case grp == 0 && shift > 0:
		return 0, errUvarintOverlong
	case shift == 63 && grp > 1:
		return 0, errUvarintOverflow
	}
	return v | grp<<shift, nil
}

// ReadGamma consumes an Elias gamma code written by WriteGamma.
func (r *Reader) ReadGamma() (uint64, error) {
	// Count the leading zeros a window at a time. A window never
	// reaches past the 64th zero, so an over-long code fails having
	// consumed exactly 64 bits.
	zeros := 0
	for {
		k := min(r.nbit-r.pos, 56, 64-zeros)
		if k == 0 {
			return 0, ErrOutOfData
		}
		if win := r.peek(k); win != 0 {
			lead := k - bits.Len64(win)
			zeros += lead
			r.pos += lead + 1
			break
		}
		zeros += k
		r.pos += k
		if zeros > 63 {
			return 0, errors.New("bits: gamma code too long")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// UintBits returns the number of bits needed to store values in [0, n),
// i.e. ceil(log2 n), with a minimum of 0 for n <= 1. It is the width used
// for fixed-size node-id fields given an n-node graph.
func UintBits(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GammaLen returns the length in bits of the Elias gamma code for v >= 1.
func GammaLen(v uint64) int {
	return 2*bits.Len64(v) - 1
}

// UvarintLen returns the length in bits of the varint code for v.
func UvarintLen(v uint64) int {
	n := 8
	for v >= 0x80 {
		v >>= 7
		n += 8
	}
	return n
}

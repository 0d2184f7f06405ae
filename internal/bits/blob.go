package bits

import "fmt"

// WriteBlob appends a length-prefixed sub-stream: a uvarint bit count
// followed by the first nbit bits of buf. It lets independently encoded
// tables (e.g. the per-node blobs of labeled.EncodeTable) be embedded
// verbatim in an outer stream and recovered bit-exactly.
func (w *Writer) WriteBlob(buf []byte, nbit int) {
	if nbit < 0 || (nbit+7)/8 > len(buf) {
		panic(fmt.Sprintf("bits: WriteBlob of %d bits over %d bytes", nbit, len(buf)))
	}
	w.WriteUvarint(uint64(nbit))
	full := nbit / 8
	if off := uint(w.nbit % 8); off == 0 {
		w.buf = append(w.buf, buf[:full]...)
	} else {
		// Each source byte ends the partial last byte and starts a
		// new one.
		for _, b := range buf[:full] {
			w.buf[len(w.buf)-1] |= b >> off
			w.buf = append(w.buf, b<<(8-off))
		}
	}
	w.nbit += 8 * full
	if rem := nbit % 8; rem > 0 {
		w.WriteBits(uint64(buf[full]>>uint(8-rem)), rem)
	}
}

// ReadBlob reads a sub-stream written by WriteBlob, returning the
// payload bytes (zero-padded to a byte boundary) and its exact bit
// length. The declared length is checked against the remaining stream
// before allocating.
func (r *Reader) ReadBlob() ([]byte, int, error) {
	nbit, err := r.ReadUvarint()
	if err != nil {
		return nil, 0, err
	}
	if nbit > uint64(r.Remaining()) {
		return nil, 0, fmt.Errorf("bits: blob of %d bits exceeds stream", nbit)
	}
	n := int(nbit)
	buf := make([]byte, (n+7)/8)
	full := n / 8
	i := r.pos / 8
	if off := uint(r.pos % 8); off == 0 {
		copy(buf[:full], r.buf[i:i+full])
	} else {
		// Merge each payload byte from the tail of one stream byte
		// and the head of the next.
		for k := range buf[:full] {
			buf[k] = r.buf[i+k]<<off | r.buf[i+k+1]>>(8-off)
		}
	}
	r.pos += 8 * full
	if rem := n % 8; rem > 0 {
		buf[full] = byte(r.peek(rem) << uint(8-rem))
		r.pos += rem
	}
	return buf, n, nil
}

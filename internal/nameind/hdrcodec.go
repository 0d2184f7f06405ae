package nameind

import (
	"fmt"
	"math"

	"compactrouting/internal/bits"
	"compactrouting/internal/labeled"
	"compactrouting/internal/trace"
)

// Wire codecs and trace-phase classification for the name-independent
// packet headers, mirroring internal/labeled/hdrcodec.go: Encode emits
// exactly Bits() bits (pinned by the codec tests and fuzz targets), so
// the header-size accounting in the experiments is the size of a real
// serialization, not an estimate.

// TracePhase maps Algorithm 3's phases onto the trace vocabulary:
// search-tree round trips are searches, moves along the zooming
// sequence are zooms, and the labeled leg to the resolved destination
// is final.
func (h NIHeader) TracePhase() trace.Phase {
	switch h.Phase {
	case NIPhaseZoom:
		return trace.PhaseZoom
	case NIPhaseFinal:
		return trace.PhaseFinal
	default:
		return trace.PhaseSearch
	}
}

// TracePhase maps the Theorem 1.1 phases: walks to a delegated ball
// center and back are tree climbs, round trips are searches, zoom
// moves are zooms, the resolved leg is final.
func (h SFNIHeader) TracePhase() trace.Phase {
	switch h.Phase {
	case SFNIToBall, SFNIReturn:
		return trace.PhaseTree
	case SFNIZoom:
		return trace.PhaseZoom
	case SFNIFinal:
		return trace.PhaseFinal
	default:
		return trace.PhaseSearch
	}
}

// niPhaseBits is the phase tag width Bits() charges for both headers.
const niPhaseBits = 3

// Encode serializes the header; the emitted size equals Bits().
func (h NIHeader) Encode(w *bits.Writer) {
	w.WriteBits(uint64(h.Phase), niPhaseBits)
	w.WriteUvarint(uint64(h.Name))
	w.WriteUvarint(uint64(h.Level))
	w.WriteBit(h.SubActive)
	w.WriteBit(h.Found)
	w.WriteUvarint(uint64(h.Center + 1))
	w.WriteUvarint(uint64(h.VTarget + 1))
	if h.SubActive {
		h.Sub.Encode(w)
	}
	if h.Found {
		w.WriteUvarint(uint64(h.FoundLabel))
	}
}

// DecodeNIHeader reads a header written by NIHeader.Encode.
func DecodeNIHeader(r *bits.Reader) (NIHeader, error) {
	tag, err := r.ReadBits(niPhaseBits)
	if err != nil {
		return NIHeader{}, err
	}
	if tag > uint64(NIPhaseFinal) {
		return NIHeader{}, fmt.Errorf("nameind: bad NI phase %d", tag)
	}
	h := NIHeader{Phase: NIPhase(tag)}
	if h.Name, err = readName(r); err != nil {
		return NIHeader{}, err
	}
	if h.Level, err = readID(r, "level", 0); err != nil {
		return NIHeader{}, err
	}
	if h.SubActive, err = r.ReadBit(); err != nil {
		return NIHeader{}, err
	}
	if h.Found, err = r.ReadBit(); err != nil {
		return NIHeader{}, err
	}
	if h.Center, err = readShiftedID(r, "center"); err != nil {
		return NIHeader{}, err
	}
	if h.VTarget, err = readShiftedID(r, "vtarget"); err != nil {
		return NIHeader{}, err
	}
	if h.SubActive {
		if h.Sub, err = labeled.DecodeSimpleHeader(r); err != nil {
			return NIHeader{}, err
		}
	}
	if h.Found {
		if h.FoundLabel, err = readID(r, "found_label", 0); err != nil {
			return NIHeader{}, err
		}
	}
	return h, nil
}

// Encode serializes the header; the emitted size equals Bits().
func (h SFNIHeader) Encode(w *bits.Writer) {
	w.WriteBits(uint64(h.Phase), niPhaseBits)
	w.WriteUvarint(uint64(h.Name))
	w.WriteUvarint(uint64(h.Level))
	w.WriteBit(h.UseBall)
	w.WriteBit(h.SubActive)
	w.WriteBit(h.Found)
	w.WriteUvarint(uint64(h.Center + 1))
	w.WriteUvarint(uint64(h.VTarget + 1))
	if h.UseBall {
		w.WriteUvarint(uint64(h.J))
		w.WriteUvarint(uint64(h.Idx))
	}
	if h.SubActive {
		h.Sub.Encode(w)
	}
	if h.Found {
		w.WriteUvarint(uint64(h.FoundLabel))
	}
}

// DecodeSFNIHeader reads a header written by SFNIHeader.Encode.
func DecodeSFNIHeader(r *bits.Reader) (SFNIHeader, error) {
	tag, err := r.ReadBits(niPhaseBits)
	if err != nil {
		return SFNIHeader{}, err
	}
	if tag > uint64(SFNIFinal) {
		return SFNIHeader{}, fmt.Errorf("nameind: bad SFNI phase %d", tag)
	}
	h := SFNIHeader{Phase: SFNIPhase(tag)}
	if h.Name, err = readName(r); err != nil {
		return SFNIHeader{}, err
	}
	if h.Level, err = readID(r, "level", 0); err != nil {
		return SFNIHeader{}, err
	}
	if h.UseBall, err = r.ReadBit(); err != nil {
		return SFNIHeader{}, err
	}
	if h.SubActive, err = r.ReadBit(); err != nil {
		return SFNIHeader{}, err
	}
	if h.Found, err = r.ReadBit(); err != nil {
		return SFNIHeader{}, err
	}
	if h.Center, err = readShiftedID(r, "center"); err != nil {
		return SFNIHeader{}, err
	}
	if h.VTarget, err = readShiftedID(r, "vtarget"); err != nil {
		return SFNIHeader{}, err
	}
	if h.UseBall {
		if h.J, err = readID(r, "j", 0); err != nil {
			return SFNIHeader{}, err
		}
		if h.Idx, err = readID(r, "idx", 0); err != nil {
			return SFNIHeader{}, err
		}
	}
	if h.SubActive {
		if h.Sub, err = labeled.DecodeSFHeader(r); err != nil {
			return SFNIHeader{}, err
		}
	}
	if h.Found {
		if h.FoundLabel, err = readID(r, "found_label", 0); err != nil {
			return SFNIHeader{}, err
		}
	}
	return h, nil
}

// readID reads a uvarint field that must fit int32 and be >= min.
func readID(r *bits.Reader, field string, min int32) (int32, error) {
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<31-1 {
		return 0, fmt.Errorf("nameind: %s %d overflows int32", field, v)
	}
	if int32(v) < min {
		return 0, fmt.Errorf("nameind: %s %d below %d", field, int32(v), min)
	}
	return int32(v), nil
}

// readName reads a destination name: a uvarint up to MaxInt64.
func readName(r *bits.Reader) (int64, error) {
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("nameind: name %d overflows int64", v)
	}
	return int64(v), nil
}

// readShiftedID reads a field encoded as value+1 so -1 round-trips.
func readShiftedID(r *bits.Reader, field string) (int32, error) {
	v, err := readID(r, field, 0)
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

package frame

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"compactrouting/internal/bits"
)

// corpusFrames builds one whole valid frame (header + payload) per
// frame type, plus a few edge shapes.
func corpusFrames() [][]byte {
	mk := func(t Type, id uint64, enc func(*bits.Writer)) []byte {
		var w bits.Writer
		if enc != nil {
			enc(&w)
		}
		buf, err := AppendFrame(nil, t, id, w.Bytes())
		if err != nil {
			panic(err)
		}
		return buf
	}
	raw := func(payload ...byte) func(*bits.Writer) {
		return func(w *bits.Writer) {
			for _, b := range payload {
				w.WriteBits(uint64(b), 8)
			}
		}
	}
	return [][]byte{
		mk(TypeSchemesRequest, 1, nil),
		mk(TypeSchemesResponse, 2, sampleSchemes().Encode),
		mk(TypeRouteRequest, 3, sampleRouteRequest().Encode),
		mk(TypeRouteResponse, 4, sampleRouteResponse().Encode),
		mk(TypeError, 5, func(w *bits.Writer) { EncodeError(w, "boom") }),
		mk(TypeRouteRequest, 6, (&RouteRequest{}).Encode),
		mk(TypeRouteResponse, 7, (&RouteResponse{}).Encode),
		// Non-canonical varints, which the decoders must refuse: an
		// overlong scheme index (80 00 for 0) before the pairs of the
		// canonical 00 01 01 02, and a tenth group wider than one bit.
		mk(TypeRouteRequest, 8, raw(0x80, 0x00, 0x01, 0x01, 0x02)),
		mk(TypeRouteRequest, 9, raw(append(bytes.Repeat([]byte{0xff}, 9), 0x7f)...)),
	}
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus. Regenerate:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/... -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seed corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, fr := range corpusFrames() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", fr)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeFrame: arbitrary bytes either fail header/payload decoding
// with an error (never a panic) or decode to a value whose re-encode is
// byte-identical to the input payload — the fixpoint the zero-padding
// rule exists for.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range corpusFrames() {
		f.Add(fr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data)
		if err != nil {
			return
		}
		if len(data) < HeaderSize+int(h.PayloadLen) {
			return
		}
		payload := data[HeaderSize : HeaderSize+int(h.PayloadLen)]
		var r bits.Reader
		var w bits.Writer
		switch h.Type {
		case TypeRouteRequest:
			var q RouteRequest
			if err := q.DecodeInto(payload, &r); err != nil {
				return
			}
			q.Encode(&w)
		case TypeRouteResponse:
			var p RouteResponse
			if err := p.DecodeInto(payload, &r); err != nil {
				return
			}
			p.Encode(&w)
		case TypeSchemesResponse:
			var p SchemesResponse
			if err := p.DecodeInto(payload, &r); err != nil {
				return
			}
			p.Encode(&w)
		case TypeError:
			msg, err := DecodeError(payload, &r)
			if err != nil {
				return
			}
			EncodeError(&w, msg)
		default:
			return
		}
		if !bytes.Equal(w.Bytes(), payload) {
			t.Fatalf("decode→encode not a fixpoint:\n in  %x\n out %x", payload, w.Bytes())
		}
	})
}

package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeQuant feeds arbitrary bytes to the .quant sidecar decoder
// and asserts that it never panics and that an accepted calibration
// re-encodes to a fixed point: decoding the re-encoded bytes and
// encoding again gives the same bytes. The seeds are a valid sidecar,
// truncations of it, a forged segment count and an inverted range.
func FuzzDecodeQuant(f *testing.F) {
	encode := func(c *QuantCalib) []byte {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(&QuantCalib{
		InDim: 3, OutDim: 1,
		Bounds:  []QuantRange{{-1, 1}, {-2, 2}},
		Preacts: []QuantRange{{-3, 3}, {0, 4}},
		GateErr: 0.01, GateRTol: 0.05,
	})
	inverted := encode(&QuantCalib{InDim: 1, OutDim: 1, Bounds: []QuantRange{{0, 1}}, Preacts: []QuantRange{{0, 1}}})
	binary.LittleEndian.PutUint64(inverted[36:], math.Float64bits(2)) // Bounds[0].Lo > Hi
	forged := append([]byte(nil), good[:20]...)
	binary.LittleEndian.PutUint32(forged[16:], quantMaxSegs)
	for _, b := range [][]byte{good, good[:len(good)/2], good[:20], forged, inverted} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeQuant(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := c.Encode(&first); err != nil {
			t.Fatalf("re-encode of an accepted calibration: %v", err)
		}
		again, err := DecodeQuant(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of a re-encoded calibration: %v", err)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encoded calibration is not a fixed point")
		}
	})
}

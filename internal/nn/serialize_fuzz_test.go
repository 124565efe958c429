package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// forgedGMOD is a .gmod header declaring one layer of kind with the given
// int configs and no floats, params or data: 45 bytes for a dense layer.
func forgedGMOD(kind string, ints ...int64) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, gmodMagic)
	b = binary.LittleEndian.AppendUint32(b, gmodVersion)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(kind)))
	b = append(b, kind...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ints)))
	for _, v := range ints {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return binary.LittleEndian.AppendUint32(b, 0)
}

// TestDecodeRejectsForgedWidths pins the widths check: layer widths read
// from the file are refused, with an error, when not positive or when the
// parameters they declare pass the model cap, before anything is
// allocated for them.
func TestDecodeRejectsForgedWidths(t *testing.T) {
	cases := map[string][]byte{
		"dense 2^40 x 2^40":        forgedGMOD("dense", 1<<40, 1<<40),
		"dense product wraps":      forgedGMOD("dense", 1<<32, 1<<32),
		"dense negative":           forgedGMOD("dense", -3, 4),
		"dense zero":               forgedGMOD("dense", 0, 4),
		"dense over cap":           forgedGMOD("dense", maxModelParams, 2),
		"dense bias over cap":      forgedGMOD("dense", 1, math.MaxInt64),
		"conv1d huge kernel":       forgedGMOD("conv1d", 1, 1<<30, 1<<30, 1),
		"conv1d zero stride":       forgedGMOD("conv1d", 1, 1, 1, 0),
		"conv2d overflowing":       forgedGMOD("conv2d", 1<<20, 1<<20, 1<<20, 1<<20, 1),
		"conv2d negative channels": forgedGMOD("conv2d", 1, -1, 3, 3, 1),
	}
	if got := len(cases["dense 2^40 x 2^40"]); got != 45 {
		t.Fatalf("forged dense file is %d bytes, want 45", got)
	}
	for name, b := range cases {
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Decode accepted the forged widths", name)
		}
	}
}

// TestDecodeBudgetSpansLayers checks that the parameter cap counts the
// whole model, not each layer alone.
func TestDecodeBudgetSpansLayers(t *testing.T) {
	net := NewNetwork(1)
	budget := 20
	if _, err := buildLayer(net, layerSpec{Kind: "dense", Ints: []int{4, 4}}, &budget); err != nil {
		t.Fatalf("first layer within budget: %v", err)
	}
	if budget != 0 {
		t.Fatalf("budget after a 4x4 dense = %d, want 0", budget)
	}
	if _, err := buildLayer(net, layerSpec{Kind: "dense", Ints: []int{1, 1}}, &budget); err == nil {
		t.Fatal("second layer accepted past the budget")
	}
}

// FuzzDecode feeds arbitrary bytes to the .gmod decoder and asserts that
// it never panics, and that an accepted model re-encodes to a fixed
// point: decoding the re-encoded bytes and encoding again gives the same
// bytes. The seeds are valid models of every serialized layer kind,
// truncations of one, and forged widths.
func FuzzDecode(f *testing.F) {
	encode := func(net *Network) []byte {
		var buf bytes.Buffer
		if err := net.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	mlp := NewNetwork(1)
	mlp.Add(mlp.NewDense(3, 4), NewActivation(ActTanh), mlp.NewDense(4, 2))
	body := NewNetwork(2)
	body.Add(body.NewDense(2, 2), NewActivation(ActReLU))
	cnn := NewNetwork(3)
	cnn.Add(NewChannelAffine(4, []float64{1, 2}, []float64{0, 1}),
		cnn.NewConv2D(2, 2, 2, 2, 1), NewMaxPool2D(1), NewFlatten(),
		NewAffine(2, 1), cnn.NewDropout(0.1), NewResidual(body))
	seq := NewNetwork(4)
	seq.Add(seq.NewConv1D(1, 2, 3, 1), NewMaxPool1D(2), NewFlatten())
	good := encode(mlp)
	for _, b := range [][]byte{good, encode(cnn), encode(seq), good[:len(good)/2], good[:13]} {
		f.Add(b)
	}
	f.Add(forgedGMOD("dense", 1<<40, 1<<40))
	f.Add(forgedGMOD("conv2d", 1<<20, 1<<20, 1<<20, 1<<20, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := net.Encode(&first); err != nil {
			t.Fatalf("re-encode of an accepted model: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of a re-encoded model: %v", err)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encoded model is not a fixed point")
		}
	})
}

package hpacml

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// guardSidecar hand-assembles a .guard file: header, margin, then the
// lo and hi bounds as given (their lengths need not match the header).
func guardSidecar(feats uint32, margin float64, lo, hi []float64) []byte {
	var b []byte
	for _, v := range []uint32{guardMagic, guardVersion, feats} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(margin))
	for _, v := range append(append([]float64(nil), lo...), hi...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestDecodeGuardrailForgedCount: a 12-byte header declaring the
// maximum feature count fails at EOF without allocating for the
// declared bounds.
func TestDecodeGuardrailForgedCount(t *testing.T) {
	forged := guardSidecar(guardMaxFeats, 0, nil, nil)[:12]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeGuardrail(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged header accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding a 12-byte header allocated %d bytes", got)
	}
	// Same with the margin present and the bounds cut short.
	short := guardSidecar(guardMaxFeats, 0.1, []float64{1, 2, 3}, nil)
	runtime.ReadMemStats(&before)
	_, err = DecodeGuardrail(bytes.NewReader(short))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated bounds accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding a %d-byte file allocated %d bytes", len(short), got)
	}
}

// TestDecodeGuardrailRejectsNonFinite: NaN or infinite bounds and
// margins are refused — a NaN bound makes every comparison in CheckRow
// false, which would accept any row.
func TestDecodeGuardrailRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string][]byte{
		"NaN lo":         guardSidecar(2, 0, []float64{nan, 0}, []float64{1, 1}),
		"NaN hi":         guardSidecar(2, 0, []float64{0, 0}, []float64{1, nan}),
		"-Inf lo":        guardSidecar(1, 0, []float64{-inf}, []float64{1}),
		"+Inf hi":        guardSidecar(1, 0, []float64{0}, []float64{inf}),
		"NaN margin":     guardSidecar(1, nan, []float64{0}, []float64{1}),
		"Inf margin":     guardSidecar(1, inf, []float64{0}, []float64{1}),
		"span overflows": guardSidecar(1, 0, []float64{-math.MaxFloat64}, []float64{math.MaxFloat64}),
		"inverted":       guardSidecar(1, 0, []float64{2}, []float64{1}),
	}
	for name, b := range cases {
		if g, err := DecodeGuardrail(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted; CheckRow(1e300) = %v", name, g.CheckRow([]float64{1e300, 1e300}[:g.Features()]))
		}
	}
	ok := guardSidecar(2, 0.1, []float64{-1, 0}, []float64{1, 2})
	g, err := DecodeGuardrail(bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if g.CheckRow([]float64{1e300, 1}) || !g.CheckRow([]float64{0, 1}) {
		t.Fatal("decoded envelope does not gate rows")
	}
}

// FuzzDecodeGuardrail feeds arbitrary bytes to the .guard decoder and
// asserts that it never panics, that an accepted guardrail has finite,
// ordered bounds, and that it re-encodes to a fixed point: decoding the
// re-encoded bytes and encoding again gives the same bytes.
func FuzzDecodeGuardrail(f *testing.F) {
	good := guardSidecar(2, 0.1, []float64{-1, 0}, []float64{1, 2})
	for _, b := range [][]byte{
		good, good[:len(good)/2], good[:12],
		guardSidecar(guardMaxFeats, 0, nil, nil),
		guardSidecar(1, math.NaN(), []float64{0}, []float64{1}),
		guardSidecar(1, 0, []float64{math.NaN()}, []float64{1}),
		guardSidecar(1, 0, []float64{2}, []float64{1}),
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGuardrail(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range g.Lo {
			if !finite(g.Lo[i]) || !finite(g.Hi[i]) || g.Lo[i] > g.Hi[i] {
				t.Fatalf("accepted feature %d bounds [%g, %g]", i, g.Lo[i], g.Hi[i])
			}
		}
		if !finite(g.Margin) {
			t.Fatalf("accepted margin %g", g.Margin)
		}
		var first bytes.Buffer
		if err := g.Encode(&first); err != nil {
			t.Fatalf("re-encode of an accepted guardrail: %v", err)
		}
		again, err := DecodeGuardrail(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of a re-encoded guardrail: %v", err)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encoded guardrail is not a fixed point")
		}
	})
}

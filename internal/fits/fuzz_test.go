package fits

import (
	"math"
	"testing"
)

// FuzzDecode feeds Decode arbitrary byte streams, seeded with real Encode
// outputs and header-corrupted variants of them. Decode must never panic,
// and any stream it accepts must re-encode to the same pixel bits.
func FuzzDecode(f *testing.F) {
	for _, im := range goldenImages() {
		raw := im.Encode()
		f.Add(raw)
		for _, mut := range []func([]byte) []byte{
			func(b []byte) []byte { b[10+19] = 'F'; return b },                       // SIMPLE = F
			func(b []byte) []byte { copy(b[3*80+10:], "             -3"); return b }, // negative NAXIS1
			func(b []byte) []byte { copy(b[5*80+8:], "  "); return b },               // CRVAL1 card loses '='
			func(b []byte) []byte { copy(b[7*80:], "XXX"); return b },                // END destroyed
			func(b []byte) []byte { return b[:len(b)-1] },                            // data truncated
			func(b []byte) []byte { return b[:BlockSize] },                           // header only
		} {
			f.Add(mut(append([]byte(nil), raw...)))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		im, err := Decode(raw)
		if err != nil {
			if !IsFormatError(err) {
				t.Fatalf("Decode error %v is not a FormatError", err)
			}
			return
		}
		back, err := Decode(im.Encode())
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if back.Width != im.Width || back.Height != im.Height {
			t.Fatalf("re-encode changed dims %dx%d -> %dx%d", im.Width, im.Height, back.Width, back.Height)
		}
		for i, v := range im.Data {
			if math.Float64bits(back.Data[i]) != math.Float64bits(v) {
				t.Fatalf("pixel %d: bits %#x re-encode to %#x", i, math.Float64bits(v), math.Float64bits(back.Data[i]))
			}
		}
	})
}

package fits

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// goldenImages are fixed images whose encodings are pinned byte for byte
// by TestEncodeGolden. Together they cover a data section that is not a
// multiple of BlockSize, one that is, negative / fractional / signed-zero
// / out-of-card-width CRVALs, and every IEEE special a pixel can hold.
func goldenImages() map[string]*Image {
	specials := []float64{
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN payload
		math.Float64frombits(0xfff8000000000123), // negative quiet NaN payload
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest denormal
		math.MaxFloat64, -math.MaxFloat64,
		1, -1.5, math.Pi,
	}
	aligned := New(60, 48) // 23,040 data bytes: exactly 8 records
	for i := range aligned.Data {
		aligned.Data[i] = math.Sin(float64(i)) * 1e3
	}
	aligned.CRVAL1, aligned.CRVAL2 = 0.125, -0.0000004

	return map[string]*Image{
		"odd-17x9": testImage(17, 9), // 1,224 data bytes
		"specials-5x3": {
			Width: 5, Height: 3,
			CRVAL1: -123.4567891, CRVAL2: math.Copysign(0, -1),
			Data: specials,
		},
		"single-1x1": {
			Width: 1, Height: 1,
			CRVAL1: -0.5, CRVAL2: 1e20,
			Data: []float64{42},
		},
		"aligned-60x48": aligned,
	}
}

// goldenSHA256 was taken from Encode before its word-at-a-time rewrite;
// any change to a byte Encode emits changes one of these.
var goldenSHA256 = map[string]string{
	"odd-17x9":      "f6a6bef7bd4a1387d03fec1d2318710443f83884a5f12a2c5eb9695ca4266175",
	"specials-5x3":  "88a1671551825424b04fe1923b425791562b72098cb82ecfa52f82c651e2195f",
	"single-1x1":    "2fee4c0c8f39db81f84eca6feab19dff491514d606278775db9bc83925836c71",
	"aligned-60x48": "1f0d41e48ebf8aa469cf5e9d5140862814a343f7f8562b160d8d795cc2ea5309",
}

// TestEncodeGolden pins Encode's exact byte stream for fixed images and
// checks that Decode hands back the exact pixel bits, NaN payloads and
// negative zero included.
func TestEncodeGolden(t *testing.T) {
	for name, im := range goldenImages() {
		raw := im.Encode()
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != goldenSHA256[name] {
			t.Errorf("%s: Encode sha256 = %s, want %s", name, got, goldenSHA256[name])
		}
		back, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if back.Width != im.Width || back.Height != im.Height {
			t.Fatalf("%s: dims %dx%d", name, back.Width, back.Height)
		}
		for i, v := range im.Data {
			if math.Float64bits(back.Data[i]) != math.Float64bits(v) {
				t.Errorf("%s: pixel %d bits %#x, want %#x", name, i, math.Float64bits(back.Data[i]), math.Float64bits(v))
			}
		}
	}
}

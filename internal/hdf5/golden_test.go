package hdf5

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestFloatSliceGolden pins the IEEE-double EncodeSlice byte stream over
// NaN payloads, denormals, infinities and both zeros (the digest was taken
// before the codec's word-at-a-time rewrite), and checks that DecodeSlice
// returns the exact input bits.
func TestFloatSliceGolden(t *testing.T) {
	bits := []uint64{
		0x7ff8000000000000, // quiet NaN
		0x7ff0000000000001, // signalling NaN, lowest payload
		0x7ff7ffffffffffff, // signalling NaN, highest payload
		0xfff8000000000123, // negative quiet NaN with payload
		0x0000000000000001, // smallest denormal
		0x000fffffffffffff, // largest denormal
		0x8000000000000001, // negative denormal
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x7fefffffffffffff, // MaxFloat64
		0x3ff0000000000000, // 1
		0xc00921fb54442d18, // -Pi
		0x0123456789abcdef,
	}
	vals := make([]float64, len(bits))
	for i, b := range bits {
		vals[i] = math.Float64frombits(b)
	}
	spec := IEEE754Double()
	raw := spec.EncodeSlice(vals)
	sum := sha256.Sum256(raw)
	const want = "bcb008527a55d585e0a8211748eb884671e1d45281e1253cbcc059f6817ec08f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("EncodeSlice sha256 = %s, want %s", got, want)
	}
	back, err := spec.DecodeSlice(raw, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if got := math.Float64bits(back[i]); got != b {
			t.Errorf("element %d: decoded bits %#016x, want %#016x", i, got, b)
		}
	}
}

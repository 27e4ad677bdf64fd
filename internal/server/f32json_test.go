package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"strconv"
	"testing"

	"maxembed/internal/embedding"
)

// strconvFloat32 is the oracle: the rendering the encoder used before the
// kernel, non-finite clamp included.
func strconvFloat32(dst []byte, b uint32) []byte {
	f := float64(math.Float32frombits(b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, '0')
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 32)
}

// quickSweeps thins the multi-million-pattern sweeps: with -short, and under
// the race detector, which slows this single-goroutine arithmetic tenfold
// and has nothing to find in it.
func quickSweeps() bool { return testing.Short() || raceEnabled }

// checkFloat32 compares the kernel with the oracle on one bit pattern.
// got and want are caller-owned scratch so the sweeps stay allocation-free.
func checkFloat32(t testing.TB, b uint32, got *[maxFloat32Len]byte, want []byte) []byte {
	n := putFloat32(got[:], b)
	want = strconvFloat32(want[:0], b)
	if !bytes.Equal(got[:n], want) {
		t.Fatalf("bits %#08x: kernel %q, strconv %q", b, got[:n], want)
	}
	return want
}

// TestAppendFloat32MatchesStrconv holds the kernel to strconv's rendering
// on the boundary patterns and on a fixed-stride sweep of the whole space.
func TestAppendFloat32MatchesStrconv(t *testing.T) {
	var got [maxFloat32Len]byte
	want := make([]byte, 0, 32)
	check := func(b uint32) {
		want = checkFloat32(t, b, &got, want)
		want = checkFloat32(t, b|1<<31, &got, want)
	}
	// Every exponent (subnormal, normal, non-finite) at the mantissa edges:
	// powers of two have the asymmetric interval, their neighbours do not.
	for e := uint32(0); e <= 0xFF; e++ {
		for _, m := range []uint32{0, 1, 2, 1<<22 - 1, 1 << 22, 1<<23 - 2, 1<<23 - 1} {
			check(e<<23 | m)
		}
	}
	for b := uint32(0); b < 1<<16; b++ { // ±0 and the smallest subnormals
		check(b)
	}
	// Every integer a float32 holds exactly: ddd000, trailing zeros, the
	// switch to 1e+06 (a sample of them with -short).
	step := uint32(1)
	if quickSweeps() {
		step = 61
	}
	for i := uint32(0); i < 1<<24; i += step {
		want = checkFloat32(t, math.Float32bits(float32(i)), &got, want)
	}
	// Both sides of the %e/%f switches (decimal exponent −5|−4 and 5|6) and
	// of every power of ten, where the digit count changes.
	for e := -45; e <= 38; e++ {
		centre := max(math.Float32bits(float32(math.Pow10(e))), 64)
		for b := centre - 64; b <= centre+64; b++ {
			check(b)
		}
	}
	for _, b := range []uint32{
		0x7F7FFFFF, 0x00800000, 0x007FFFFF, 0x00000001, // max, min normal, max subnormal, 1e-45
		0x7F800000, 0x7FC00000, 0x7F800001, 0xFFFFFFFF, // non-finite → 0
		math.Float32bits(0.3), math.Float32bits(3e-7), math.Float32bits(1.5), math.Float32bits(-2.25),
		math.Float32bits(123456.7), math.Float32bits(999999.94), math.Float32bits(0.000099999994),
		math.Float32bits(16777216), math.Float32bits(33554432), math.Float32bits(9.999999e9),
	} {
		check(b)
	}
	// Fixed-stride sweep: 2²⁴ patterns (2²⁰ with -short), the stride odd so
	// every exponent and every low-bit pattern is visited.
	n, stride := uint32(1<<24), uint32(255)
	if quickSweeps() {
		n, stride = 1<<20, 4093
	}
	for i, b := uint32(0), uint32(0); i < n; i, b = i+1, b+stride {
		want = checkFloat32(t, b, &got, want)
	}
}

// TestSynthesizerValuesMatchStrconv covers the benchmark's own value
// distribution: every k/2²³ in [−1, 1) the synthesizer can emit.
func TestSynthesizerValuesMatchStrconv(t *testing.T) {
	if quickSweeps() {
		t.Skip("2^24 values")
	}
	var got [maxFloat32Len]byte
	want := make([]byte, 0, 32)
	for i := -(1 << 23); i < 1<<23; i++ {
		want = checkFloat32(t, math.Float32bits(float32(i)/(1<<23)), &got, want)
	}
}

func FuzzAppendFloat32(f *testing.F) {
	for _, b := range []uint32{0, 1, 1 << 31, 0x3F800000, 0x00800000, 0x7F7FFFFF, 0x7F800000, 0x49742400, 0x38D1B717} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		var got [maxFloat32Len]byte
		checkFloat32(t, b, &got, nil)
		// And the value survives a round trip through the text.
		n := putFloat32(got[:], b)
		back, err := strconv.ParseFloat(string(got[:n]), 32)
		if err != nil {
			t.Fatalf("bits %#08x: %q does not parse: %v", b, got[:n], err)
		}
		if v := math.Float32frombits(b); v == v && !math.IsInf(float64(v), 0) && math.Float32bits(float32(back)) != b {
			t.Fatalf("bits %#08x: %q reads back as %#08x", b, got[:n], math.Float32bits(float32(back)))
		}
	})
}

// TestPow10TableMatchesBig re-derives the committed table: entry i is
// 10^e scaled to 64 significant bits and rounded up, e = i + pow10f32Min.
func TestPow10TableMatchesBig(t *testing.T) {
	if got, want := len(pow10f32), 45-pow10f32Min+1; got != want {
		// k = −⌊log₁₀ 2^q⌋ over q ∈ [−149, 104] spans [−31, 45].
		t.Fatalf("table has %d entries, want %d", got, want)
	}
	ten := big.NewInt(10)
	for i, g := range pow10f32 {
		e := i + pow10f32Min
		num, den := big.NewInt(1), big.NewInt(1)
		if e >= 0 {
			num.Exp(ten, big.NewInt(int64(e)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-e)), nil)
		}
		// Shift so the quotient has more than 64 bits, then keep the top 64.
		num.Lsh(num, 256)
		q, r := new(big.Int).QuoRem(num, den, new(big.Int))
		drop := uint(q.BitLen() - 64)
		top := new(big.Int).Rsh(q, drop)
		if r.Sign() != 0 || new(big.Int).Lsh(top, drop).Cmp(q) != 0 {
			top.Add(top, big.NewInt(1))
		}
		if !top.IsUint64() || top.Uint64() != g {
			t.Errorf("pow10f32[%d] (1e%d) = %#016x, math/big says %#016x", i, e, g, top)
		}
	}
}

func TestAppendFloat32sShapes(t *testing.T) {
	if got := string(appendFloat32sLE([]byte("x"), nil)); got != "x[]" {
		t.Errorf("empty vector: %q", got)
	}
	payload := []byte{0, 0, 0xC0, 0x3F, 0, 0, 0x10, 0xC0, 0xAA} // 1.5, −2.25, one stray byte
	if got := string(appendFloat32sLE([]byte(","), payload)); got != ",[1.5,-2.25]" {
		t.Errorf("payload vector: %q", got)
	}
}

// BenchmarkAppendFloat32s renders 2¹⁶ distinct synthesizer-distributed
// values (k/2²³ in [−1, 1)) per iteration. Unlike a loop over one reply,
// whose few thousand values a branch predictor learns by heart, this is
// what a server encoding different vectors on every request pays per
// float; the strconv sub-benchmark is the encoder it replaced.
func BenchmarkAppendFloat32s(b *testing.B) {
	vals := make([]float32, 1<<16)
	x := uint64(1)
	for i := range vals {
		x = x*6364136223846793005 + 1442695040888963407
		vals[i] = float32(int32(x>>40)-(1<<23)) / (1 << 23)
	}
	payload := embedding.EncodeVector(vals, nil)
	run := func(b *testing.B, enc func(buf, payload []byte) []byte) {
		buf := enc(nil, payload)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = enc(buf[:0], payload)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/float")
	}
	b.Run("kernel", func(b *testing.B) { run(b, appendFloat32sLE) })
	b.Run("strconv", func(b *testing.B) {
		run(b, func(buf, payload []byte) []byte {
			buf = append(buf, '[')
			for i := 0; i < len(payload); i += 4 {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconvFloat32(buf, binary.LittleEndian.Uint32(payload[i:]))
			}
			return append(buf, ']')
		})
	})
}

// TestDigits8 checks the in-word digit split against plain division on a
// stride through every eight-digit value and on the lane boundaries.
func TestDigits8(t *testing.T) {
	check := func(d uint32) {
		want := uint64(0)
		for i, r := 7, d; i >= 0; i, r = i-1, r/10 {
			want |= uint64(r%10) << (8 * i)
		}
		if got := digits8(d); got != want {
			t.Fatalf("digits8(%08d) = %#016x, want %#016x", d, got, want)
		}
	}
	stride := uint32(7)
	if quickSweeps() {
		stride = 997
	}
	for d := uint32(0); d < 100000000; d += stride {
		check(d)
	}
	for _, hi := range []uint32{0, 1, 99, 100, 999, 1000, 5243, 9899, 9900, 9999} {
		for _, lo := range []uint32{0, 1, 9, 10, 99, 100, 199, 1000, 9899, 9990, 9999} {
			check(hi*10000 + lo)
		}
	}
}

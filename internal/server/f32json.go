package server

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Float32 → shortest decimal, for the JSON lookup encoder. The algorithm is
// Schubfach (Giulietti, "The Schubfach way to render doubles", 2020)
// specialised to binary32: scale the value and its two rounding-interval
// bounds by a power of ten with one 64×64→128 multiply each, then pick the
// shortest decimal inside the interval, the closest one on a tie in length.
// What varies from one float to the next (sign, rounding direction, digit
// count) is computed without branches, and the digits are split and stored
// eight at a time. The rendering is byte-identical to
//
//	strconv.AppendFloat(dst, float64(f), 'g', -1, 32)
//
// for every finite float32 (TestAppendFloat32MatchesStrconv; all 2³²
// patterns under -tags exhaustive), so replies do not change by a byte.
// See DESIGN.md §17.

// maxFloat32Len is the longest rendering: sign, nine digits, and either
// "0.000" in front or a point and "e-XX" around them.
const maxFloat32Len = 15

// pow10f32[i] = ⌈10^e · 2^(63−⌊log₂ 10^e⌋)⌉ for e = i + pow10f32Min: the
// upper 64 bits of every power of ten a binary32 needs, rounded up.
// TestPow10TableMatchesBig re-derives the table with math/big.
const pow10f32Min = -31

var pow10f32 = [...]uint64{
	0x81CEB32C4B43FCF5, // 1e-31
	0xA2425FF75E14FC32, // 1e-30
	0xCAD2F7F5359A3B3F, // 1e-29
	0xFD87B5F28300CA0E, // 1e-28
	0x9E74D1B791E07E49, // 1e-27
	0xC612062576589DDB, // 1e-26
	0xF79687AED3EEC552, // 1e-25
	0x9ABE14CD44753B53, // 1e-24
	0xC16D9A0095928A28, // 1e-23
	0xF1C90080BAF72CB2, // 1e-22
	0x971DA05074DA7BEF, // 1e-21
	0xBCE5086492111AEB, // 1e-20
	0xEC1E4A7DB69561A6, // 1e-19
	0x9392EE8E921D5D08, // 1e-18
	0xB877AA3236A4B44A, // 1e-17
	0xE69594BEC44DE15C, // 1e-16
	0x901D7CF73AB0ACDA, // 1e-15
	0xB424DC35095CD810, // 1e-14
	0xE12E13424BB40E14, // 1e-13
	0x8CBCCC096F5088CC, // 1e-12
	0xAFEBFF0BCB24AAFF, // 1e-11
	0xDBE6FECEBDEDD5BF, // 1e-10
	0x89705F4136B4A598, // 1e-9
	0xABCC77118461CEFD, // 1e-8
	0xD6BF94D5E57A42BD, // 1e-7
	0x8637BD05AF6C69B6, // 1e-6
	0xA7C5AC471B478424, // 1e-5
	0xD1B71758E219652C, // 1e-4
	0x83126E978D4FDF3C, // 1e-3
	0xA3D70A3D70A3D70B, // 1e-2
	0xCCCCCCCCCCCCCCCD, // 1e-1
	0x8000000000000000, // 1e0
	0xA000000000000000, // 1e1
	0xC800000000000000, // 1e2
	0xFA00000000000000, // 1e3
	0x9C40000000000000, // 1e4
	0xC350000000000000, // 1e5
	0xF424000000000000, // 1e6
	0x9896800000000000, // 1e7
	0xBEBC200000000000, // 1e8
	0xEE6B280000000000, // 1e9
	0x9502F90000000000, // 1e10
	0xBA43B74000000000, // 1e11
	0xE8D4A51000000000, // 1e12
	0x9184E72A00000000, // 1e13
	0xB5E620F480000000, // 1e14
	0xE35FA931A0000000, // 1e15
	0x8E1BC9BF04000000, // 1e16
	0xB1A2BC2EC5000000, // 1e17
	0xDE0B6B3A76400000, // 1e18
	0x8AC7230489E80000, // 1e19
	0xAD78EBC5AC620000, // 1e20
	0xD8D726B7177A8000, // 1e21
	0x878678326EAC9000, // 1e22
	0xA968163F0A57B400, // 1e23
	0xD3C21BCECCEDA100, // 1e24
	0x84595161401484A0, // 1e25
	0xA56FA5B99019A5C8, // 1e26
	0xCECB8F27F4200F3A, // 1e27
	0x813F3978F8940985, // 1e28
	0xA18F07D736B90BE6, // 1e29
	0xC9F2C9CD04674EDF, // 1e30
	0xFC6F7C4045812297, // 1e31
	0x9DC5ADA82B70B59E, // 1e32
	0xC5371912364CE306, // 1e33
	0xF684DF56C3E01BC7, // 1e34
	0x9A130B963A6C115D, // 1e35
	0xC097CE7BC90715B4, // 1e36
	0xF0BDC21ABB48DB21, // 1e37
	0x96769950B50D88F5, // 1e38
	0xBC143FA4E250EB32, // 1e39
	0xEB194F8E1AE525FE, // 1e40
	0x92EFD1B8D0CF37BF, // 1e41
	0xB7ABC627050305AE, // 1e42
	0xE596B7B0C643C71A, // 1e43
	0x8F7E32CE7BEA5C70, // 1e44
	0xB35DBF821AE4F38C, // 1e45
}

// roundToOdd returns ⌊g·cp / 2⁶⁴⌋ with the lowest bit set when the dropped
// fraction is non-zero: enough to compare against the interval bounds
// exactly (Schubfach §9.4).
func roundToOdd(g uint64, cp uint32) uint32 {
	hi, lo := bits.Mul64(g, uint64(cp))
	return uint32(hi) | bit(uint32(lo>>32) > 1)
}

// bit is the branch-free bool → 0/1 the compiler turns into a SETcc. Which
// way a value rounds, how many digits it has and what sign it carries are
// coin flips from one float to the next, so the kernel computes with these
// instead of branching on them; it branches only on what a reply's values
// share (magnitude, hence layout).
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// shortestFloat32 returns the shortest decimal d·10^k that reads back as
// the positive finite non-zero float32 with the given fraction and biased
// exponent fields. d has at most nine digits and may end in zeros: 10^k is
// the weight of the last digit Schubfach considered, not of the last
// significant one.
func shortestFloat32(frac, exp uint32) (d uint32, k int32) {
	c, q := frac, int32(-149)
	if exp != 0 {
		c, q = 1<<23|frac, int32(exp)-150
	}
	// The interval is [v−ulp/2, v+ulp/2] in units of a quarter ulp, closed
	// when c is even (round-half-even reads a bound back as v). Below a
	// power of two the spacing halves, so the lower bound is a quarter ulp
	// away.
	cb, cbl, cbr := 4*c, 4*c-2, 4*c+2
	k = (q * 1262611) >> 22 // ⌊log₁₀ 2^q⌋
	if frac == 0 && exp > 1 {
		cbl = 4*c - 1
		k = (q*1262611 - 524031) >> 22 // ⌊log₁₀ ¾·2^q⌋
	}
	h := uint(q + (-k*1741647)>>19 + 1) // q + ⌊log₂ 10^−k⌋ + 1
	g := pow10f32[-k-pow10f32Min]
	vbl, vb, vbr := roundToOdd(g, cbl<<h), roundToOdd(g, cb<<h), roundToOdd(g, cbr<<h)
	odd := c & 1
	lower, upper := vbl+odd, vbr-odd

	// Same length as ⌊v⌋ = s: the neighbour of s inside the interval, or,
	// with both or neither inside, the closer one, ties to even.
	s := vb / 4
	dnIn, upIn := lower <= 4*s, 4*s+4 <= upper
	mid := 4*s + 2
	closer := bit(vb > mid) | bit(vb == mid)&s
	one := bit(dnIn != upIn)
	d = s + (one&bit(upIn) | (one^1)&closer)
	// One digit fewer, if exactly one neighbour of ⌊s/10⌋ is inside.
	sp := s / 10
	dnIn, upIn = lower <= 40*sp, 40*sp+40 <= upper
	fewer := bit(dnIn != upIn) & bit(s >= 10)
	d ^= (d ^ (sp + bit(upIn))) & -fewer
	return d, k + int32(fewer)
}

// pow10u32[i] = 10^i.
var pow10u32 = [...]uint32{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000}

// decimalLen returns the number of decimal digits of d < 10⁹, d ≠ 0.
func decimalLen(d uint32) int {
	t := bits.Len32(d) * 1233 >> 12 // ⌊log₁₀ 2^len⌋: the length, or one short
	return t + 1 - int(bit(d < pow10u32[t]))
}

// digits8 returns the eight decimal digits of d < 10⁸, leading zeros
// included, one per byte with the first in the low byte (so a little-endian
// store writes them in reading order). The digits are split inside one
// 64-bit word, 4+4 → 2+2+2+2 → 1×8, each split an exact multiply-and-shift
// division on all lanes at once.
func digits8(d uint32) uint64 {
	x := uint64(d/10000) | uint64(d%10000)<<32 // two lanes < 10⁴
	y := x * 5243 >> 19 & 0x0000007F_0000007F  // each / 100
	x = y | (x-100*y)<<16                      // four lanes < 100
	y = x * 103 >> 10 & 0x000F_000F_000F_000F  // each / 10
	return y | (x-10*y)<<8
}

// putFloat32 writes the float32 with IEEE bits b at dst[0:] and returns the
// length written; dst must hold maxFloat32Len bytes, all of which may be
// scribbled on. Non-finite values (never produced by the store's verified
// payloads, but bytes are bytes) become 0 so the JSON stays valid.
func putFloat32(dst []byte, b uint32) int {
	_ = dst[maxFloat32Len-1]
	frac, exp := b&(1<<23-1), b>>23&0xFF
	if exp == 0xFF {
		dst[0] = '0'
		return 1
	}
	dst[0] = '-'
	n := int(b >> 31) // past the sign, or over it
	if exp|frac == 0 {
		dst[n] = '0'
		return n + 1
	}
	d, k := shortestFloat32(frac, exp)
	nd := decimalLen(d)
	dp := nd + int(k) // digits before the decimal point
	// The digits go out left-aligned in a field of nine, so the zeros that
	// pad d land past the end (or are an integer's own); nd becomes the
	// count of significant ones, trailing zeros of d itself not included.
	d *= pow10u32[9-nd]
	first := d / 100000000
	rest := digits8(d - first*100000000)
	nd = 9 - bits.LeadingZeros64(rest)>>3
	rest |= 0x30303030_30303030

	// strconv's %g with the shortest precision: exponent form when the
	// decimal exponent dp−1 is below −4 or at least 6, positional otherwise.
	if -3 <= dp && dp <= 0 {
		// 0.000ddd: the field overwrites the zeros not needed.
		dst[n], dst[n+1], dst[n+2], dst[n+3], dst[n+4] = '0', '.', '0', '0', '0'
		n += 2 - dp
		dst[n] = '0' + byte(first)
		binary.LittleEndian.PutUint64(dst[n+1:], rest)
		return n + nd
	}
	// The other layouts put a point inside the digits: write the field one
	// place to the right, then move what precedes the point back.
	dst[n+1] = '0' + byte(first)
	binary.LittleEndian.PutUint64(dst[n+2:], rest)
	if 0 < dp && dp <= 6 {
		// ddd.ddd, or with no significant digit after the point ddd000: an
		// integer below 10⁶ whose zeros are the field's padding.
		copy(dst[n:], dst[n+1:n+1+dp])
		dst[n+dp] = '.'
		if nd <= dp {
			return n + dp
		}
		return n + nd + 1
	}
	// d.ddde±XX
	dst[n] = dst[n+1]
	dst[n+1] = '.'
	n += nd + int(bit(nd > 1)) // a lone digit takes no point
	e, sign := dp-1, byte('+')
	if e < 0 {
		e, sign = -e, '-'
	}
	dst[n], dst[n+1], dst[n+2], dst[n+3] = 'e', sign, '0'+byte(e/10), '0'+byte(e%10)
	return n + 4
}

// appendFloat32sLE appends the JSON array of the little-endian float32s in
// payload, the layout of a SlotRef view. Room for the whole array is
// reserved once: w is buf extended to its capacity and n the write
// position; each element takes putFloat32 and a comma, and the last comma,
// if there was an element, becomes the closing bracket.
func appendFloat32sLE(buf, payload []byte) []byte {
	buf = slices.Grow(buf, 2+len(payload)/4*(maxFloat32Len+1))
	w, n := buf[:cap(buf)], len(buf)
	w[n] = '['
	n++
	for ; len(payload) >= 4; payload = payload[4:] {
		n += putFloat32(w[n:], binary.LittleEndian.Uint32(payload))
		w[n] = ','
		n++
	}
	if w[n-1] == ',' {
		n--
	}
	w[n] = ']'
	return w[:n+1]
}

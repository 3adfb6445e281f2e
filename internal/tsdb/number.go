package tsdb

import (
	"math"
	"math/bits"
	"strconv"
)

// appendFloat appends f exactly as strconv.AppendFloat(dst, f, 'g', -1,
// 64) does. A value whose exact decimal has at most 15 significant
// digits — zero, an integer below 1e15, a fraction with few binary
// places from 1e-4 to 1e6, such as 1234.625 — is spelled from those
// digits: no other decimal of 15 digits or fewer reads back to it, so
// they are the shortest spelling strconv would search for. Any other
// value is strconv's.
func appendFloat(dst []byte, f float64) []byte {
	a := math.Abs(f)
	if a >= 1e15 || a < 1e-4 && (a != 0 || math.Signbit(f)) || a != a { // -0 and NaN among them
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	if u := uint64(a); float64(u) == a {
		if u < 1e6 {
			return strconv.AppendInt(dst, int64(f), 10)
		}
		// strconv's 'e' form from 1e6 on: the digits without their
		// trailing zeros, the point after the first, two exponent digits.
		x := 0
		for ; u%10 == 0; u /= 10 {
			x++
		}
		if f < 0 {
			dst = append(dst, '-')
		}
		j := len(dst) + 1
		dst = strconv.AppendUint(append(dst, 0), u, 10)
		x += len(dst) - j - 1
		if dst[j-1], dst[j] = dst[j], '.'; len(dst) == j+1 {
			dst = dst[:j]
		}
		return append(dst, 'e', '+', byte('0'+x/10), byte('0'+x%10))
	}
	// a = m × 2^-k with m odd, so its decimal is m×5^k / 10^k: k places
	// after the point, the last not a zero. 5^22 is past 1e15, so a
	// larger k is not raised beyond it.
	b := math.Float64bits(a)
	m, e := b&(1<<52-1)|1<<52, int(b>>52)-1075
	tz := bits.TrailingZeros64(m)
	m, k := m>>tz, -(e + tz)
	p := uint64(1)
	for range min(k, 22) {
		p *= 5
	}
	if hi, d := bits.Mul64(m, p); hi != 0 || d >= 1e15 || a >= 1e6 {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	if f < 0 {
		dst = append(dst, '-')
	}
	// 'f' form below 1e6. a >= 1e-4 puts 10^k below 1e19: the places
	// go down as 10^k plus them, whose leading '1' becomes the point.
	d, q := m*p, p<<k
	dst = strconv.AppendUint(dst, d/q, 10)
	i := len(dst)
	dst = strconv.AppendUint(dst, q+d%q, 10)
	dst[i] = '.'
	return dst
}

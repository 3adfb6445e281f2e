package tsdb

import (
	"encoding/binary"
	"math"
)

// The sealed-block readers as they stood before the word-wise bit
// reader replaced them, kept verbatim (names prefixed ref) as the oracle
// FuzzBlockDecode and TestBlockDecodeMatchesReference hold the new
// decoders to: identical accept/reject on any bytes, the same error
// class, and bit-identical columns (NaN cells included).

// refBitReader consumes an MSB-first bit stream with hard bounds checks.
type refBitReader struct {
	buf []byte
	pos uint // bit position
}

// readBits reads nb bits (nb <= 64), erroring instead of over-reading.
func (r *refBitReader) readBits(nb uint) (uint64, error) {
	if uint(len(r.buf))*8-r.pos < nb {
		return 0, errBlockCorrupt
	}
	var v uint64
	for nb > 0 {
		avail := 8 - r.pos&7
		take := avail
		if take > nb {
			take = nb
		}
		chunk := uint64(r.buf[r.pos>>3]>>(avail-take)) & (1<<take - 1)
		v = v<<take | chunk
		r.pos += take
		nb -= take
	}
	return v, nil
}

// refDecodeTimes decompresses the timestamp column into dst (reused when
// it has capacity), verifying it is sorted and matches the footer range.
func refDecodeTimes(b *block, dst []int64) ([]int64, error) {
	if cap(dst) < b.rows {
		dst = make([]int64, b.rows)
	}
	dst = dst[:b.rows]
	data := b.blob[b.tsOff : b.tsOff+b.tsLen]
	p := 0
	var prevT, prevD int64
	for i := 0; i < b.rows; i++ {
		v, n := binary.Varint(data[p:])
		if n <= 0 {
			return nil, errBlockCorrupt
		}
		p += n
		switch i {
		case 0:
			prevT = v
		case 1:
			prevD = v
			prevT += v
		default:
			prevD += v
			prevT += prevD
		}
		if i > 0 && prevT < dst[i-1] {
			return nil, errBlockCorrupt
		}
		dst[i] = prevT
	}
	if p != len(data) || dst[0] != b.minT || dst[b.rows-1] != b.maxT {
		return nil, errBlockCorrupt
	}
	return dst, nil
}

// refDecodeField decompresses field column fi into dst aligned with the
// block's rows: dst[r] is the value, or NaN where the row has none.
func refDecodeField(b *block, fi int, dst []float64) ([]float64, error) {
	f := &b.fields[fi]
	if cap(dst) < b.rows {
		dst = make([]float64, b.rows)
	}
	dst = dst[:b.rows]
	bitmap := b.blob[f.bmOff : f.bmOff+f.bmLen]
	br := refBitReader{buf: b.blob[f.valOff : f.valOff+f.valLen]}
	nan := math.NaN()
	var prevBits uint64
	var lz, sig uint = 0, 64
	first := true
	for r := 0; r < b.rows; r++ {
		if bitmap[r>>3]>>(r&7)&1 == 0 {
			dst[r] = nan
			continue
		}
		if first {
			v, err := br.readBits(64)
			if err != nil {
				return nil, err
			}
			prevBits = v
			first = false
		} else {
			c, err := br.readBits(1)
			if err != nil {
				return nil, err
			}
			if c == 1 {
				c2, err := br.readBits(1)
				if err != nil {
					return nil, err
				}
				if c2 == 1 {
					l, err := br.readBits(5)
					if err != nil {
						return nil, err
					}
					s, err := br.readBits(6)
					if err != nil {
						return nil, err
					}
					lz, sig = uint(l), uint(s)
					if sig == 0 {
						sig = 64
					}
					if lz+sig > 64 {
						return nil, errBlockCorrupt
					}
				}
				m, err := br.readBits(sig)
				if err != nil {
					return nil, err
				}
				prevBits ^= m << (64 - lz - sig)
			}
		}
		v := math.Float64frombits(prevBits)
		if v != v { // NaN never enters a valid block; refuse the sentinel
			return nil, errBlockCorrupt
		}
		dst[r] = v
	}
	// Only sub-byte zero padding may remain unread.
	if rem := uint(len(br.buf))*8 - br.pos; rem >= 8 {
		return nil, errBlockCorrupt
	} else if rem > 0 {
		if pad, err := br.readBits(rem); err != nil || pad != 0 {
			return nil, errBlockCorrupt
		}
	}
	return dst, nil
}

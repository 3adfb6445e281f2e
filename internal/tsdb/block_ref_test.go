package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The sealed-block readers as they stood before the word-wise bit
// reader replaced them, kept verbatim (names prefixed ref) as the oracle
// FuzzBlockDecode and TestBlockDecodeMatchesReference hold the new
// decoders to: identical accept/reject on any bytes, the same error
// class, and bit-identical columns (NaN cells included).
//
// The column-at-a-time encoder as it stood before heads compressed on
// append, with the word-wise bit writer it used, kept verbatim the same
// way: TestOpenBlockMatchesEncodeBlock holds every seal to its bytes.

// refBitWriter appends an MSB-first bit stream a word at a time: bits
// collect left-aligned in acc and reach buf eight bytes per append.
type refBitWriter struct {
	buf []byte
	acc uint64 // pending bits, left-aligned
	n   uint   // pending bit count, < 64
}

// writeBits appends the low nb <= 64 bits of v, most significant first.
func (w *refBitWriter) writeBits(v uint64, nb uint) {
	v <<= 64 - nb // left-align
	w.acc |= v >> w.n
	if w.n+nb < 64 {
		w.n += nb
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
	w.acc = v << (64 - w.n) // the bits of v that did not fit
	w.n += nb - 64
}

// bytes returns the stream, its last byte zero-padded.
func (w *refBitWriter) bytes() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.buf
}

// refEncodeBlock compresses rows of a series (aligned columns, NaN =
// absent) into a sealed block. times must be non-decreasing and
// non-empty; columns with no present values are dropped.
func refEncodeBlock(times []int64, names []string, cols [][]float64) (*block, error) {
	rows := len(times)
	if rows == 0 {
		return nil, fmt.Errorf("tsdb: encode empty block")
	}
	blob := make([]byte, 0, 16+rows)
	blob = append(blob, blockMagic)
	blob = binary.AppendUvarint(blob, uint64(rows))
	blob = binary.AppendVarint(blob, times[0])
	blob = binary.AppendVarint(blob, times[rows-1])

	// Timestamp column: first value, first delta, then delta-of-deltas —
	// all zigzag varints (telemetry ticks make the dods almost all zero,
	// one byte each).
	ts := make([]byte, 0, rows+8)
	var prevT, prevD int64
	for i, t := range times {
		switch i {
		case 0:
			ts = binary.AppendVarint(ts, t)
		case 1:
			d := t - prevT
			ts = binary.AppendVarint(ts, d)
			prevD = d
		default:
			d := t - prevT
			ts = binary.AppendVarint(ts, d-prevD)
			prevD = d
		}
		prevT = t
	}
	blob = binary.AppendUvarint(blob, uint64(len(ts)))
	blob = append(blob, ts...)

	// Field sections, skipping columns with nothing present in this run.
	type section struct {
		name            string
		count, zeros    uint64
		minV, maxV, sum float64
		bitmap, stream  []byte
	}
	var secs []section
	for ci, name := range names {
		col := cols[ci]
		bitmap := make([]byte, (rows+7)/8)
		var vw refBitWriter
		var count, zeros uint64
		var minV, maxV, sum float64
		var prevBits uint64
		var lz, sig uint
		windowValid := false
		for r := 0; r < rows; r++ {
			v := col[r]
			if v != v { // NaN sentinel: field absent in this row
				continue
			}
			bitmap[r>>3] |= 1 << (r & 7)
			bitsV := math.Float64bits(v)
			if count == 0 {
				vw.writeBits(bitsV, 64)
				minV, maxV, sum = v, v, v
			} else {
				xor := prevBits ^ bitsV
				if xor == 0 {
					vw.writeBits(0, 1)
				} else {
					l := uint(bits.LeadingZeros64(xor))
					if l > 31 {
						l = 31
					}
					tz := uint(bits.TrailingZeros64(xor))
					if windowValid && l >= lz && tz >= 64-lz-sig {
						vw.writeBits(2, 2) // '1','0': reuse window
						vw.writeBits(xor>>(64-lz-sig), sig)
					} else {
						s := 64 - l - tz
						vw.writeBits(3, 2) // '1','1': new window
						vw.writeBits(uint64(l), 5)
						vw.writeBits(uint64(s&63), 6) // 64 encodes as 0
						vw.writeBits(xor>>tz, s)
						lz, sig = l, s
						windowValid = true
					}
				}
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				sum += v
			}
			if v == 0 {
				zeros++
			}
			count++
			prevBits = bitsV
		}
		if count == 0 {
			continue
		}
		secs = append(secs, section{
			name: name, count: count, zeros: zeros,
			minV: minV, maxV: maxV, sum: sum,
			bitmap: bitmap, stream: vw.bytes(),
		})
	}
	blob = binary.AppendUvarint(blob, uint64(len(secs)))
	for _, s := range secs {
		blob = binary.AppendUvarint(blob, uint64(len(s.name)))
		blob = append(blob, s.name...)
		blob = binary.AppendUvarint(blob, s.count)
		blob = binary.AppendUvarint(blob, s.zeros)
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(s.minV))
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(s.maxV))
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(s.sum))
		blob = binary.AppendUvarint(blob, uint64(len(s.bitmap)))
		blob = append(blob, s.bitmap...)
		blob = binary.AppendUvarint(blob, uint64(len(s.stream)))
		blob = append(blob, s.stream...)
	}
	// Re-parsing the freshly built blob keeps one authoritative format
	// reader and guarantees anything we sealed will decode.
	return decodeBlock(blob)
}

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
	data := b.ts
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
	bitmap := f.bitmap
	br := refBitReader{buf: f.stream}
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

package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Sealed-block storage: the immutable, compressed half of the columnar
// engine. A block holds up to blockRows samples of ONE series as
// columns — a delta-of-delta varint timestamp column plus, per field, a
// presence bitmap and a Gorilla XOR-compressed float64 value stream —
// and carries a footer per field (count/zeros/min/max/sum) plus the
// block's time range, so retention can drop whole blocks in O(1) and
// aggregate scans over fully-covered windows never decompress at all.
//
// The blob is self-contained: the same bytes live in memory, in the
// snapshot file, and (conceptually) on any future wire — encode once at
// seal time, reuse everywhere. decodeBlock re-parses a blob into its
// meta (footers + column slices) with every length and invariant
// checked, so a corrupt snapshot errors instead of tearing the scan;
// FuzzBlockDecode holds the decoder to "never panic, never over-read".

// blockRows is the seal threshold: a series head that reaches this many
// rows is compressed into one immutable block (~InfluxDB TSM / Prometheus
// chunk granularity; also the scan work unit, so parallelism and
// cancellation keep the old stripe responsiveness).
const blockRows = 4096

// blockMagic tags a block blob (format v1).
const blockMagic = 0xB1

// Decoder limits: a corrupt length field must not drive allocations or
// loops past what the blob itself can back.
const (
	maxBlockRows     = 1 << 20
	maxBlockFields   = 1 << 12
	maxFieldNameSize = 1 << 10
)

var errBlockCorrupt = errors.New("tsdb: corrupt block")

// footer is one field's aggregates over a block's rows: what a scan
// folds without decompressing, and the head keeps running.
type footer struct {
	count, zeros  uint64
	min, max, sum float64
}

// blockField is one field column of a block: its footer aggregates,
// its presence bitmap and its XOR stream.
type blockField struct {
	name string
	footer
	bitmap, stream []byte
}

// block is one compressed run of a series: sealed and immutable, its
// streams slices of its blob, or an open block's, which has no blob.
type block struct {
	rows       int
	values     int // present field values across all columns
	minT, maxT int64
	unsorted   bool // an open block's rows did not arrive in time order
	blob       []byte
	ts         []byte // the timestamp stream
	fields     []blockField
}

// fieldIndex finds a field column by name, -1 when the block has none.
func (b *block) fieldIndex(name string) int {
	for i := range b.fields {
		if b.fields[i].name == name {
			return i
		}
	}
	return -1
}

// fieldNames lists the block's field names.
func (b *block) fieldNames() []string {
	names := make([]string, len(b.fields))
	for i := range b.fields {
		names[i] = b.fields[i].name
	}
	return names
}

// The bit reader consumes an MSB-first stream through a left-aligned
// 64-bit accumulator. Its state is three values its caller keeps in
// locals (acc is the decode loop's critical path; a struct whose methods
// took its address would live in memory): buf, the bytes not yet loaded,
// and acc, whose top n bits are the next n unread bits. Every read
// checks n first, so a short stream is refused, never over-read.

// refill tops acc up to more than 56 bits, or to all that is left. Eight
// bytes load at once and the whole bytes that fit are consumed; leading
// bits of the next byte land below the n valid ones, where the next
// refill ORs them again — until then they are not counted. The last <8
// bytes load byte-wise: a word load there would over-read.
func refill(buf []byte, acc uint64, n uint) ([]byte, uint64, uint) {
	if len(buf) >= 8 {
		adv := (64 - n) >> 3
		return buf[adv:], acc | binary.BigEndian.Uint64(buf)>>n, n + adv<<3
	}
	for n <= 56 && len(buf) > 0 {
		buf, acc, n = buf[1:], acc|uint64(buf[0])<<(56-n), n+8
	}
	return buf, acc, n
}

// readBits reads 1 <= nb <= 64 bits through a refill; ok is false on a
// shorter stream. The decode loop calls it for what acc does not hold.
func readBits(buf []byte, acc uint64, n, nb uint) (v uint64, _ []byte, _ uint64, _ uint, ok bool) {
	if n < nb {
		if buf, acc, n = refill(buf, acc, n); n < nb {
			// Short stream, or nb > 56 met 57..63 bits in acc: those are the
			// value's high part, a second refill has the low nb-n <= 7.
			if n+8*uint(len(buf)) < nb {
				return 0, buf, acc, n, false
			}
			nb -= n
			v = acc >> (64 - n) << nb
			buf, acc, n = refill(buf, 0, 0)
		}
	}
	return v | acc>>(64-nb), buf, acc << nb, n - nb, true
}

// openBlock is a block still taking rows: the sealed format's streams
// written as rows arrive — delta-of-delta timestamps, and per field a
// presence bitmap and a Gorilla XOR stream — with each field's footer
// kept running in row order. The embedded block's rows, time range,
// footers and stream slices stay current, so &o.block reads as any
// block does; a field with no value yet reads as one the block lacks.
// Rows arrive in any order, deltas taken from the last row's time; a
// row before maxT marks the block unsorted. close writes a sorted
// block's sealed blob around the streams without encoding anything
// again.
type openBlock struct {
	block           // ts: first time, first delta, then delta-of-deltas, as zig-zag varints
	lastT int64     // the last row's time
	prevD int64     // the last time delta
	cols  []openCol // the XOR writers, aligned with fields
	bytes int       // ts, bitmap and stream bytes: what the head holds
}

// openCol writes one field's XOR stream, MSB first, a word at a time:
// bits collect left-aligned in acc and reach the stream eight bytes per
// append. acc's word is stored past the whole words on every write, and
// the stream ends in its bytes that hold bits, so the stream written so
// far reads from its slice alone, its last byte zero-padded: a head
// reader never has to flush the writer. The field's bitmap is empty
// while it has a value in every row so far (the decoder never reads a
// gap-free column's bitmap), and is written at the first gap; the bytes
// a bitmap lacks are zero.
type openCol struct {
	acc      uint64 // pending bits, left-aligned
	prevBits uint64
	n        uint8 // pending bit count, < 64
	lz, sig  uint8 // the XOR window; sig == 0 until the first one is set
}

// writeBits appends the low nb <= 64 bits of v to stream, most
// significant first, and returns the stream.
func (c *openCol) writeBits(stream []byte, v uint64, nb uint) []byte {
	n := uint(c.n)
	words := stream[:len(stream)-int(n+7)/8]
	v <<= 64 - nb // left-align
	c.acc |= v >> n
	if n+nb < 64 {
		n += nb
	} else {
		words = binary.BigEndian.AppendUint64(words, c.acc)
		c.acc = v << (64 - n) // the bits of v that did not fit
		n += nb - 64
	}
	c.n = uint8(n)
	return binary.BigEndian.AppendUint64(words, c.acc)[:len(words)+int(n+7)/8]
}

// addField appends an empty field column.
func (o *openBlock) addField(name string) {
	o.fields = append(o.fields, blockField{name: name})
	o.cols = append(o.cols, openCol{})
}

// appendTime appends a row at time t and returns its index.
func (o *openBlock) appendTime(t int64) int {
	n := len(o.ts)
	if o.rows == 0 {
		o.ts = binary.AppendVarint(o.ts, t)
		o.minT, o.maxT = t, t
	} else { // the first delta is a delta-of-delta from 0
		d := t - o.lastT
		o.ts = binary.AppendVarint(o.ts, d-o.prevD)
		o.prevD = d
		o.unsorted = o.unsorted || t < o.maxT
		o.minT, o.maxT = min(o.minT, t), max(o.maxT, t)
	}
	o.lastT = t
	o.rows++
	o.bytes += len(o.ts) - n
	return o.rows - 1
}

// put appends the value of row r to field ci, later than the field's
// last.
func (o *openBlock) put(ci, r int, v float64) {
	f, c := &o.fields[ci], &o.cols[ci]
	n := len(f.bitmap) + len(f.stream)
	if len(f.bitmap) > 0 || r != int(f.count) {
		if len(f.bitmap) == 0 {
			f.bitmap = appendOnes(f.bitmap, int(f.count))
		}
		for len(f.bitmap) <= r>>3 {
			f.bitmap = append(f.bitmap, 0)
		}
		f.bitmap[r>>3] |= 1 << (r & 7)
	}
	bitsV := math.Float64bits(v)
	st := f.stream
	if f.count == 0 {
		st = c.writeBits(st, bitsV, 64)
		f.min, f.max, f.sum = v, v, v
	} else {
		xor := c.prevBits ^ bitsV
		if xor == 0 {
			st = c.writeBits(st, 0, 1)
		} else {
			l := min(uint(bits.LeadingZeros64(xor)), 31)
			tz := uint(bits.TrailingZeros64(xor))
			if lz, sig := uint(c.lz), uint(c.sig); sig > 0 && l >= lz && tz >= 64-lz-sig {
				st = c.writeBits(st, 2, 2) // '1','0': reuse window
				st = c.writeBits(st, xor>>(64-lz-sig), sig)
			} else {
				// '1','1': new window, 5 bits of leading zeros, 6 of width (64
				// encodes as 0)
				s := 64 - l - tz
				st = c.writeBits(st, 3<<11|uint64(l)<<6|uint64(s&63), 13)
				st = c.writeBits(st, xor>>tz, s)
				c.lz, c.sig = uint8(l), uint8(s)
			}
		}
		if v < f.min {
			f.min = v
		}
		if v > f.max {
			f.max = v
		}
		f.sum += v
	}
	if v == 0 {
		f.zeros++
	}
	f.count++
	o.values++
	c.prevBits = bitsV
	f.stream = st
	o.bytes += len(f.bitmap) + len(f.stream) - n
}

// appendOnes appends the bitmap of n present rows.
func appendOnes(dst []byte, n int) []byte {
	for ; n >= 8; n -= 8 {
		dst = append(dst, 0xff)
	}
	if n > 0 {
		dst = append(dst, 1<<n-1)
	}
	return dst
}

// appendRows appends time-sorted rows given as columns aligned with
// o.fields, NaN (or a nil column) where a row has no value.
func (o *openBlock) appendRows(times []int64, cols [][]float64) {
	r0 := o.rows
	for _, t := range times {
		o.appendTime(t)
	}
	for ci, col := range cols {
		for r, v := range col {
			if v == v {
				o.put(ci, r0+r, v)
			}
		}
	}
}

// reset empties the block for the next rows, keeping its fields and
// buffers.
func (o *openBlock) reset() {
	o.block = block{ts: o.ts[:0], fields: o.fields}
	o.prevD, o.bytes = 0, 0
	for i := range o.fields {
		f := &o.fields[i]
		*f = blockField{name: f.name, bitmap: f.bitmap[:0], stream: f.stream[:0]}
		o.cols[i] = openCol{}
	}
}

// close writes the sealed blob of the rows so far — the header, the
// timestamp stream, then for each field with a value its footer, bitmap
// and stream — and parses it back, so one reader owns the format and
// nothing sealed fails to decode.
func (o *openBlock) close() (*block, error) {
	if o.rows == 0 {
		return nil, fmt.Errorf("tsdb: encode empty block")
	}
	bmLen := (o.rows + 7) / 8
	size, nf := 40+o.bytes, 0 // 40 bounds a header's and a footer's varints
	for i := range o.fields {
		if o.fields[i].count > 0 {
			size += 40 + len(o.fields[i].name) + bmLen
			nf++
		}
	}
	blob := make([]byte, 0, size)
	blob = append(blob, blockMagic)
	blob = binary.AppendUvarint(blob, uint64(o.rows))
	blob = binary.AppendVarint(blob, o.minT)
	blob = binary.AppendVarint(blob, o.maxT)
	blob = binary.AppendUvarint(blob, uint64(len(o.ts)))
	blob = append(blob, o.ts...)
	blob = binary.AppendUvarint(blob, uint64(nf))
	for i := range o.fields {
		f := &o.fields[i]
		if f.count == 0 {
			continue
		}
		blob = binary.AppendUvarint(blob, uint64(len(f.name)))
		blob = append(blob, f.name...)
		blob = binary.AppendUvarint(blob, f.count)
		blob = binary.AppendUvarint(blob, f.zeros)
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(f.min))
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(f.max))
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(f.sum))
		blob = binary.AppendUvarint(blob, uint64(bmLen))
		bm := len(blob)
		if len(f.bitmap) == 0 {
			blob = appendOnes(blob, int(f.count))
		} else {
			blob = append(blob, f.bitmap...)
		}
		blob = append(blob, make([]byte, bm+bmLen-len(blob))...)
		blob = binary.AppendUvarint(blob, uint64(len(f.stream)))
		blob = append(blob, f.stream...)
	}
	return decodeBlock(blob)
}

// encodeBlock compresses rows of a series (aligned columns, NaN =
// absent) into a sealed block: appended into a fresh open block, then
// closed. times must be non-decreasing and non-empty; columns with no
// present values are dropped.
func encodeBlock(times []int64, names []string, cols [][]float64) (*block, error) {
	var o openBlock
	for _, name := range names {
		o.addField(name)
	}
	o.appendRows(times, cols)
	return o.close()
}

// decodeBlock parses a block blob into its meta: time range, per-field
// footers, and column slices. Every length is bounds-checked and every
// structural invariant verified, so arbitrary bytes yield an error, not
// a panic or an over-read; the columns themselves stay compressed.
func decodeBlock(blob []byte) (*block, error) {
	p := 0
	uvar := func() (uint64, error) {
		v, n := binary.Uvarint(blob[p:])
		if n <= 0 {
			return 0, errBlockCorrupt
		}
		p += n
		return v, nil
	}
	ivar := func() (int64, error) {
		v, n := binary.Varint(blob[p:])
		if n <= 0 {
			return 0, errBlockCorrupt
		}
		p += n
		return v, nil
	}
	if len(blob) == 0 || blob[0] != blockMagic {
		return nil, errBlockCorrupt
	}
	p = 1
	rows64, err := uvar()
	if err != nil || rows64 == 0 || rows64 > maxBlockRows {
		return nil, errBlockCorrupt
	}
	rows := int(rows64)
	minT, err := ivar()
	if err != nil {
		return nil, err
	}
	maxT, err := ivar()
	if err != nil || maxT < minT {
		return nil, errBlockCorrupt
	}
	tsLen64, err := uvar()
	if err != nil || tsLen64 > uint64(len(blob)-p) {
		return nil, errBlockCorrupt
	}
	b := &block{rows: rows, minT: minT, maxT: maxT, blob: blob, ts: blob[p : p+int(tsLen64)]}
	p += int(tsLen64)
	nf64, err := uvar()
	if err != nil || nf64 > maxBlockFields {
		return nil, errBlockCorrupt
	}
	bmLen := (rows + 7) / 8
	for i := uint64(0); i < nf64; i++ {
		var f blockField
		nameLen, err := uvar()
		if err != nil || nameLen == 0 || nameLen > maxFieldNameSize || nameLen > uint64(len(blob)-p) {
			return nil, errBlockCorrupt
		}
		f.name = string(blob[p : p+int(nameLen)])
		p += int(nameLen)
		if f.count, err = uvar(); err != nil || f.count == 0 || f.count > uint64(rows) {
			return nil, errBlockCorrupt
		}
		if f.zeros, err = uvar(); err != nil || f.zeros > f.count {
			return nil, errBlockCorrupt
		}
		if len(blob)-p < 24 {
			return nil, errBlockCorrupt
		}
		f.min = math.Float64frombits(binary.LittleEndian.Uint64(blob[p:]))
		f.max = math.Float64frombits(binary.LittleEndian.Uint64(blob[p+8:]))
		f.sum = math.Float64frombits(binary.LittleEndian.Uint64(blob[p+16:]))
		p += 24
		// Stored values are validated finite, so min/max are finite and
		// ordered. The sum may overflow to ±Inf (finite additions can
		// saturate) but can never be NaN.
		if f.min > f.max || math.IsNaN(f.min) || math.IsInf(f.min, 0) ||
			math.IsNaN(f.max) || math.IsInf(f.max, 0) || math.IsNaN(f.sum) {
			return nil, errBlockCorrupt
		}
		gotBM, err := uvar()
		if err != nil || gotBM != uint64(bmLen) || gotBM > uint64(len(blob)-p) {
			return nil, errBlockCorrupt
		}
		f.bitmap = blob[p : p+bmLen]
		var present uint64
		for _, by := range f.bitmap {
			present += uint64(bits.OnesCount8(by))
		}
		if present != f.count {
			return nil, errBlockCorrupt
		}
		// Bits past the last row must be clear or the popcount check is
		// meaningless.
		if rows%8 != 0 && blob[p+bmLen-1]>>(rows%8) != 0 {
			return nil, errBlockCorrupt
		}
		p += bmLen
		valLen, err := uvar()
		if err != nil || valLen > uint64(len(blob)-p) {
			return nil, errBlockCorrupt
		}
		f.stream = blob[p : p+int(valLen)]
		p += int(valLen)
		if b.fieldIndex(f.name) >= 0 {
			return nil, errBlockCorrupt
		}
		b.fields = append(b.fields, f)
		b.values += int(f.count)
	}
	if p != len(blob) {
		return nil, errBlockCorrupt
	}
	return b, nil
}

// decodeTimes decompresses the timestamp column into dst (reused when
// it has capacity), verifying it is sorted and matches the footer range
// unless the block is an unsorted head, in memory.
func (b *block) decodeTimes(dst []int64) ([]int64, error) {
	if cap(dst) < b.rows {
		dst = make([]int64, b.rows)
	}
	dst = dst[:b.rows]
	data, p := b.ts, 0
	var prevT, prevD int64
	for i := 0; i < len(dst); i++ {
		if p >= len(data) {
			return nil, errBlockCorrupt
		}
		if data[p] == 0 && i > 0 {
			// A run of 0x00s (regular ticks) repeats the last delta: filled
			// arithmetically if unsorted, or sorted and ending at or below
			// maxT, else checked.
			k, n := 1, min(len(dst)-i, len(data)-p)
			for k+8 <= n && binary.LittleEndian.Uint64(data[p+k:]) == 0 {
				k += 8
			}
			for k < n && data[p+k] == 0 {
				k++
			}
			if b.unsorted || prevD >= 0 && prevT <= b.maxT && (prevD == 0 || uint64(k) <= uint64(b.maxT-prevT)/uint64(prevD)) {
				run := dst[i : i+k]
				for j := range run {
					run[j] = prevT + int64(j+1)*prevD
				}
				prevT, i, p = run[k-1], i+k-1, p+k
				continue
			}
		}
		// A regular tick's delta-of-delta is the byte 0x00: one-byte
		// zig-zag varints decode in line, longer ones in the library.
		v := int64(data[p]>>1) ^ -int64(data[p]&1)
		if data[p] < 0x80 {
			p++
		} else {
			var n int
			if v, n = binary.Varint(data[p:]); n <= 0 {
				return nil, errBlockCorrupt
			}
			p += n
		}
		if i == 0 {
			prevT = v
		} else { // the first delta is a delta-of-delta from 0
			prevD += v
			prevT += prevD
		}
		if i > 0 && prevT < dst[i-1] && !b.unsorted {
			return nil, errBlockCorrupt
		}
		dst[i] = prevT
	}
	if p != len(data) || !b.unsorted && (dst[0] != b.minT || dst[b.rows-1] != b.maxT) {
		return nil, errBlockCorrupt
	}
	return dst, nil
}

// decodeField decompresses field column fi into dst (reused when it has
// capacity) aligned with the block's rows, spread by the presence bitmap
// — bytes past its end are zero — with NaN where a row has none.
func (b *block) decodeField(fi int, dst []float64) ([]float64, error) {
	if cap(dst) < b.rows {
		dst = make([]float64, b.rows)
	}
	dst = dst[:b.rows]
	vals, err := b.decodeValues(fi, dst)
	if err != nil {
		return nil, err
	}
	// Spread a sparse column over its rows, back to front: a value moves
	// before anything overwrites it, and once k > r the rest is in place.
	bitmap := b.fields[fi].bitmap
	for k, r := len(vals), len(dst)-1; k <= r; r-- {
		if r>>3 >= len(bitmap) || bitmap[r>>3]>>(r&7)&1 == 0 {
			dst[r] = math.NaN()
		} else {
			k--
			dst[r] = dst[k]
		}
	}
	return dst, nil
}

// decodeValues decompresses field column fi's present values, back to
// back in the stream (decodeBlock held count to the bitmap's popcount),
// into dst[:count], which must have room, and returns that slice.
func (b *block) decodeValues(fi int, dst []float64) ([]float64, error) {
	f := &b.fields[fi]
	vals := dst[:f.count]
	if len(vals) == 0 {
		return vals, nil
	}
	prevBits, buf, acc, n, ok := readBits(f.stream, 0, 0, 64)
	vals[0] = math.Float64frombits(prevBits)
	if !ok || vals[0] != vals[0] {
		return nil, errBlockCorrupt
	}
	var sig, shift uint = 64, 0 // the window: its width, and zeros below it
	for k := 1; k < len(vals); k++ {
		// One refill covers the control code, a window header and a payload
		// of up to 44 bits.
		if n < 57 {
			buf, acc, n = refill(buf, acc, n)
		}
		switch {
		case n == 0:
			return nil, errBlockCorrupt
		case acc>>63 == 0: // '0': the value repeats
			acc, n = acc<<1, n-1
			vals[k] = vals[k-1]
			continue
		case n < 2:
			return nil, errBlockCorrupt
		case acc>>62 == 2: // '10': reuse the window
			acc, n = acc<<2, n-2
		case n < 13:
			return nil, errBlockCorrupt
		default: // '11': 5 bits of leading zeros, 6 of width (0 = 64)
			lz := uint(acc >> 57 & 31)
			sig = (uint(acc>>51)-1)&63 + 1
			acc, n = acc<<13, n-13
			if lz+sig > 64 {
				return nil, errBlockCorrupt
			}
			shift = 64 - lz - sig
		}
		var m uint64
		if sig <= n { // shifts masked to what they can be: no range fix-ups
			m, acc, n = acc>>((64-sig)&63), acc<<((sig-1)&63)<<1, n-sig
		} else if m, buf, acc, n, ok = readBits(buf, acc, n, sig); !ok {
			return nil, errBlockCorrupt
		}
		prevBits ^= m << (shift & 63)
		v := math.Float64frombits(prevBits)
		if v != v { // NaN never enters a valid block; refuse the sentinel
			return nil, errBlockCorrupt
		}
		vals[k] = v
	}
	// Only sub-byte zero padding may remain unread.
	if len(buf) > 0 || n >= 8 || (n > 0 && acc>>(64-n) != 0) {
		return nil, errBlockCorrupt
	}
	return vals, nil
}

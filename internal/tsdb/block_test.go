package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// Property suite for the sealed-block codec: compress→decompress must
// be a bit-lossless round trip (including -0.0 and denormals), and the
// per-field footers must equal a recount of the decoded column. The
// generator leans adversarial: denormals, ±0, alternating signs,
// constant runs, duplicate/negative/extreme timestamps, and sparse
// presence patterns.

// genBlockCase builds one random (times, names, cols) input. Returned
// columns use NaN for absent cells, mirroring live heads.
func genBlockCase(rng *rand.Rand) (times []int64, names []string, cols [][]float64) {
	rows := 1 + rng.Intn(600)
	switch rng.Intn(20) {
	case 0:
		rows = 1 + rng.Intn(blockRows) // occasionally a full-size block
	case 1:
		rows = 1 + rng.Intn(3) // and a block of a row or three
	}
	times = make([]int64, rows)
	base := int64(rng.Intn(1<<30)) - (1 << 29)
	switch rng.Intn(10) {
	case 0: // extreme magnitudes: deltas overflow-wrap but round-trip
		base = math.MinInt64 + int64(rng.Intn(1000))
	case 1:
		base = math.MaxInt64 - int64(rng.Intn(1000)) - int64(rows)*10
	}
	t := base
	for i := range times {
		times[i] = t
		switch rng.Intn(5) {
		case 0: // duplicate timestamp
		case 1:
			t += int64(rng.Intn(3))
		default:
			t += int64(rng.Intn(100000))
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	nf := 1 + rng.Intn(4)
	for f := 0; f < nf; f++ {
		names = append(names, string(rune('a'+f)))
		col := make([]float64, rows)
		pattern := rng.Intn(6)
		present := 1 + rng.Intn(100) // % chance a cell is present
		if rng.Intn(4) == 0 {
			present = 100 // a column with no gaps: the decoder never needs the bitmap
		}
		prev := 0.0
		for i := range col {
			if rng.Intn(100) >= present {
				col[i] = math.NaN()
				continue
			}
			switch pattern {
			case 0: // constant run
				col[i] = 42.5
			case 1: // ±0, sign alternating with the row index
				if i%2 == 0 {
					col[i] = 0.0
				} else {
					col[i] = math.Copysign(0, -1)
				}
			case 2: // denormals
				col[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
			case 3: // alternating signs, same magnitude
				col[i] = math.Copysign(3.25, float64(1-2*(i%2)))
			case 4: // slow drift (XOR-friendly)
				prev += float64(rng.Intn(5)) * 0.25
				col[i] = prev
			default: // arbitrary finite values, huge and tiny
				col[i] = math.Float64frombits(rng.Uint64())
				for math.IsNaN(col[i]) || math.IsInf(col[i], 0) {
					col[i] = math.Float64frombits(rng.Uint64())
				}
			}
		}
		cols = append(cols, col)
	}
	return times, names, cols
}

func TestBlockRoundTrip1k(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb10cb10c))
	for c := 0; c < 1000; c++ {
		times, names, cols := genBlockCase(rng)
		b, err := encodeBlock(times, names, cols)
		if err != nil {
			t.Fatalf("case %d: encode: %v", c, err)
		}
		checkRoundTrip(t, fmt.Sprintf("case %d", c), b, times, names, cols)
	}
}

// checkRoundTrip holds a block to the source columns it was encoded
// from: the time range, decodeBlock's rows and values, times and values
// bit-exact (-0.0 included, NaN as absence), footers equal to a
// recount, and all-absent columns dropped.
func checkRoundTrip(t *testing.T, label string, b *block, times []int64, names []string, cols [][]float64) {
	t.Helper()
	if b.minT != times[0] || b.maxT != times[len(times)-1] {
		t.Fatalf("%s: time range [%d,%d], want [%d,%d]", label, b.minT, b.maxT, times[0], times[len(times)-1])
	}
	// decodeBlock of the blob must agree with the encoder's view.
	b2, err := decodeBlock(b.blob)
	if err != nil {
		t.Fatalf("%s: re-decode: %v", label, err)
	}
	if b2.rows != len(times) || b2.values != b.values {
		t.Fatalf("%s: re-decode rows/values %d/%d, want %d/%d", label, b2.rows, b2.values, len(times), b.values)
	}
	if gotT, err := b.decodeTimes(nil); err != nil || !slices.Equal(gotT, times) {
		t.Fatalf("%s: decodeTimes: %v, or times differ from the source", label, err)
	}
	for fi, name := range names {
		var count, zeros uint64
		minV, maxV, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range cols[fi] {
			if math.IsNaN(v) {
				continue
			}
			count++
			sum += v
			minV, maxV = min(minV, v), max(maxV, v)
			if v == 0 {
				zeros++
			}
		}
		bi := b.fieldIndex(name)
		if count == 0 {
			if bi >= 0 {
				t.Fatalf("%s field %s: all-absent column not dropped", label, name)
			}
			continue
		}
		if bi < 0 {
			t.Fatalf("%s field %s: missing from block", label, name)
		}
		f := &b.fields[bi]
		if f.count != count || f.zeros != zeros || f.min != minV || f.max != maxV || f.sum != sum {
			t.Fatalf("%s field %s: footer {%d %d %v %v %v}, want {%d %d %v %v %v}",
				label, name, f.count, f.zeros, f.min, f.max, f.sum, count, zeros, minV, maxV, sum)
		}
		got, err := b.decodeField(bi, nil)
		if err != nil {
			t.Fatalf("%s field %s: decodeField: %v", label, name, err)
		}
		for i, want := range cols[fi] {
			if math.IsNaN(want) != math.IsNaN(got[i]) || !math.IsNaN(want) && math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s field %s row %d: got %x, want %x", label, name, i, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// TestBlockCompressionRatio pins the reason this engine exists: a
// telemetry-shaped block (ticking clock, slowly varying values)
// compresses well below its raw columnar size.
func TestBlockCompressionRatio(t *testing.T) {
	times := make([]int64, blockRows)
	col := make([]float64, blockRows)
	for i := range times {
		times[i] = int64(i) * 1_000_000_000
		col[i] = float64(i%97) / 4
	}
	b, err := encodeBlock(times, []string{"f"}, [][]float64{col})
	if err != nil {
		t.Fatal(err)
	}
	raw := blockRows * 16 // 8 bytes time + 8 bytes value per row
	if len(b.blob)*4 > raw {
		t.Fatalf("block blob %d bytes, want at least 4x under raw %d", len(b.blob), raw)
	}
}

// sameVerdict reports whether a decoder and its reference agree on
// error-vs-ok and on the error class.
func sameVerdict(got, want error) bool {
	return (got == nil) == (want == nil) && errors.Is(got, errBlockCorrupt) == errors.Is(want, errBlockCorrupt)
}

// checkDecodeAgainstReference holds the decoders to the ones they
// replaced (block_ref_test.go) on one parsed block: column by column,
// the same accept/reject, the same error class, the same bits.
func checkDecodeAgainstReference(t *testing.T, label string, b *block) {
	t.Helper()
	gotT, gerr := b.decodeTimes(nil)
	wantT, werr := refDecodeTimes(b, nil)
	if !sameVerdict(gerr, werr) {
		t.Fatalf("%s: decodeTimes error %v, reference %v", label, gerr, werr)
	}
	if !slices.Equal(gotT, wantT) {
		t.Fatalf("%s: timestamp column differs from the reference", label)
	}
	for fi := range b.fields {
		got, gerr := b.decodeField(fi, nil)
		want, werr := refDecodeField(b, fi, nil)
		if !sameVerdict(gerr, werr) {
			t.Fatalf("%s: field %s: decodeField error %v, reference %v", label, b.fields[fi].name, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: field %s: %d rows, reference %d", label, b.fields[fi].name, len(got), len(want))
		}
		for r, w := range want {
			if math.Float64bits(got[r]) != math.Float64bits(w) {
				t.Fatalf("%s: field %s row %d: got %x, reference %x", label, b.fields[fi].name, r, math.Float64bits(got[r]), math.Float64bits(w))
			}
		}
	}
}

// TestBlockDecodeMatchesReference runs the differential check over
// seeded blocks and over damaged copies of each: every truncation class
// and single-bit flips across the blob. It also requires the generator
// to have produced the shapes the word-wise reader treats differently.
func TestBlockDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15b10c))
	var oneRow, dense, sparse, fullWidth int
	var padBits [8]int
	for c := 0; c < 2000; c++ {
		times, names, cols := genBlockCase(rng)
		b, err := encodeBlock(times, names, cols)
		if err != nil {
			t.Fatalf("case %d: encode: %v", c, err)
		}
		label := fmt.Sprintf("case %d", c)
		checkDecodeAgainstReference(t, label, b)
		if b.rows == 1 {
			oneRow++
		}
		for fi := range b.fields {
			f := &b.fields[fi]
			if f.count == uint64(b.rows) {
				dense++
			} else {
				sparse++
			}
			bitLen, wide := refStreamBits(t, b, fi)
			padBits[bitLen%8]++
			if wide {
				fullWidth++
			}
		}
		// Damage: decodeBlock refuses most of it; what still parses must
		// decode, or fail, exactly as the reference does.
		blob := b.blob
		for k := 0; k < 24; k++ {
			mut := append([]byte(nil), blob...)
			if k%3 == 0 {
				mut = mut[:rng.Intn(len(mut))]
			} else {
				mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			}
			if mb, err := decodeBlock(mut); err == nil {
				checkDecodeAgainstReference(t, fmt.Sprintf("%s damage %d", label, k), mb)
			}
		}
		// A stream cut or extended by whole bytes keeps the frame valid
		// when its length prefix follows, which decodeBlock cannot catch.
		for fi := range b.fields {
			for _, delta := range []int{-9, -8, -1, 1, 8} {
				if mb := resizeStream(b, fi, delta); mb != nil {
					checkDecodeAgainstReference(t, fmt.Sprintf("%s field %d stream %+d", label, fi, delta), mb)
				}
			}
		}
	}
	if oneRow == 0 || dense == 0 || sparse == 0 || fullWidth == 0 {
		t.Fatalf("generator coverage: 1-row %d, dense %d, sparse %d, sig==64 %d", oneRow, dense, sparse, fullWidth)
	}
	for off, n := range padBits {
		if n == 0 {
			t.Fatalf("generator coverage: no stream ends %d bits into a byte", off)
		}
	}
}

// refStreamBits walks field fi's stream with the reference reader and
// returns its length in bits before padding, and whether any value was
// stored with a full 64-bit window.
func refStreamBits(t *testing.T, b *block, fi int) (bitLen uint, wide bool) {
	t.Helper()
	f := &b.fields[fi]
	br := refBitReader{buf: f.stream}
	read := func(nb uint) uint64 {
		v, err := br.readBits(nb)
		if err != nil {
			t.Fatalf("walk field %d: %v", fi, err)
		}
		return v
	}
	read(64)
	sig := uint(64)
	for k := uint64(1); k < f.count; k++ {
		if read(1) == 0 {
			continue
		}
		if read(1) == 1 {
			read(5)
			if sig = uint(read(6)); sig == 0 {
				sig = 64
			}
		}
		if sig == 64 {
			wide = true
		}
		read(sig)
	}
	return br.pos, wide
}

// resizeStream returns a re-framed copy of b whose field fi stream is
// delta bytes longer (zero bytes appended) or shorter, nil when the
// stream is too short to cut.
func resizeStream(b *block, fi, delta int) *block {
	f := &b.fields[fi]
	if len(f.stream)+delta < 0 {
		return nil
	}
	// The stream is a slice of the blob, so its offset is their
	// capacities' difference.
	off, end := cap(b.blob)-cap(f.stream), cap(b.blob)-cap(f.stream)+len(f.stream)
	prefix := len(binary.AppendUvarint(nil, uint64(len(f.stream))))
	blob := append([]byte(nil), b.blob[:off-prefix]...)
	blob = binary.AppendUvarint(blob, uint64(len(f.stream)+delta))
	if delta < 0 {
		blob = append(blob, f.stream[:len(f.stream)+delta]...)
	} else {
		blob = append(blob, f.stream...)
		blob = append(blob, make([]byte, delta)...)
	}
	blob = append(blob, b.blob[end:]...)
	mb, err := decodeBlock(blob)
	if err != nil {
		return nil
	}
	return mb
}

// telemetryBlockInput is a full block shaped like what a sampler seals:
// a clock ticking every millisecond and eight gap-free random walks in
// steps of 1/8.
const telemetryStep = 1_000_000 // ns between its rows

func telemetryBlockInput(rng *rand.Rand) (times []int64, names []string, cols [][]float64) {
	times = make([]int64, blockRows)
	for r := range times {
		times[r] = 1_700_000_000_000_000_000 + int64(r)*telemetryStep
	}
	names = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	cols = make([][]float64, len(names))
	for ci := range cols {
		cols[ci] = make([]float64, blockRows)
		v := float64(rng.Intn(64))
		for r := range cols[ci] {
			v += float64(rng.Intn(17)-8) / 8
			cols[ci][r] = v
		}
	}
	return times, names, cols
}

// blockFixture is the fixed input of testdata/block_pr14.bin: the blobs,
// each behind a uvarint length, that the parent commit's per-byte
// bit writer sealed for 40 generated cases and one telemetry-shaped full
// block.
func blockFixture(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	var out []byte
	add := func(times []int64, names []string, cols [][]float64) {
		b, err := encodeBlock(times, names, cols)
		if err != nil {
			t.Fatal(err)
		}
		out = binary.AppendUvarint(out, uint64(len(b.blob)))
		out = append(out, b.blob...)
	}
	for c := 0; c < 40; c++ {
		add(genBlockCase(rng))
	}
	add(telemetryBlockInput(rng))
	return out
}

// TestBlockBytesUnchanged: the word-wise bit writer seals byte for byte
// what the per-byte writer it replaced did.
func TestBlockBytesUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "block_pr14.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if got := blockFixture(t); !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("sealed blocks differ from the PR 14 writer's: %d bytes vs %d, first difference at offset %d", len(got), len(want), n)
	}
}

// FuzzBlockDecode holds the block decoder to its contract on arbitrary
// bytes: never panic, never over-read — either a clean error or a block
// whose columns decode, or fail to, exactly as under the reference
// readers (block_ref_test.go).
func FuzzBlockDecode(f *testing.F) {
	// Seed with valid blobs (and their prefixes) so the fuzzer starts
	// inside the format, plus raw noise.
	times := []int64{-5, 0, 0, 7, 1 << 40}
	colA := []float64{1.5, math.Copysign(0, -1), math.NaN(), 1.5, -2.25}
	colB := []float64{math.NaN(), math.SmallestNonzeroFloat64, 2, 2, math.NaN()}
	if b, err := encodeBlock(times, []string{"a", "b"}, [][]float64{colA, colB}); err == nil {
		f.Add(b.blob)
		f.Add(b.blob[:len(b.blob)/2])
		f.Add(b.blob[:1])
		mut := append([]byte(nil), b.blob...)
		mut[len(mut)/3] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{blockMagic})
	f.Add([]byte{blockMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBlock(data)
		if err != nil {
			return
		}
		checkDecodeAgainstReference(t, "fuzz input", b)
	})
}

// telemetryBlock seals telemetryBlockInput: the block the scan-kernel
// benchmarks and allocation tests run over.
func telemetryBlock(tb testing.TB) *block {
	tb.Helper()
	blk, err := encodeBlock(telemetryBlockInput(rand.New(rand.NewSource(1))))
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

func BenchmarkDecodeField(b *testing.B) {
	blk := telemetryBlock(b)
	dst := make([]float64, blk.rows)
	b.ReportAllocs()
	b.SetBytes(int64(blk.rows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.decodeField(i%len(blk.fields), dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTimes(b *testing.B) {
	blk := telemetryBlock(b)
	dst := make([]int64, blk.rows)
	b.ReportAllocs()
	b.SetBytes(int64(blk.rows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.decodeTimes(dst); err != nil {
			b.Fatal(err)
		}
	}
}

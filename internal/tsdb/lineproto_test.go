package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// codecNames covers what a name can hold: every byte the protocol
// escapes (alone, doubled, leading, trailing), a trailing backslash, and
// bytes that must pass through untouched.
var codecNames = []string{
	"cpu", "_cpu0", "_cpu87", "host", "v", "kernel_percpu_cpu_idle", "1 minute",
	`\`, `\\`, ",", " ", "=", `a\`, `\a`, `a b`, `a,b`, `a=b`, `a\b`, ` a`, `a `, `=a`, `a=`, `,a`, `a,`,
	`a\ b`, `a\,b`, `a\=b`, `\ \,\=\\`, `m s,c=e\b`, "μετρ", "字段", "tab\there", "nl\nin", "\x00", "N", "NaN", "-",
}

var codecValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, 0.1, 1e21, 1e20, 1e-7, 123456789, 1 << 53, math.Pi, 99.5,
}

var codecTimes = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1722000000000000000}

// codecPoint draws one valid point: 0–3 tags, 1–9 fields (88 now and
// then), names and values from the tables above or random.
func codecPoint(rng *rand.Rand) Point {
	name := func() string {
		if rng.Intn(4) > 0 {
			return codecNames[rng.Intn(len(codecNames))]
		}
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = `ab01_\, =`[rng.Intn(9)]
		}
		return string(b)
	}
	value := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return codecValues[rng.Intn(len(codecValues))]
		case 1:
			return float64(rng.Intn(1 << 20))
		}
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite value
	}
	p := Point{Measurement: name(), Fields: map[string]float64{}, Time: rng.Int63() - rng.Int63()}
	if rng.Intn(4) == 0 {
		p.Time = codecTimes[rng.Intn(len(codecTimes))]
	}
	if n := rng.Intn(4); n > 0 {
		p.Tags = map[string]string{}
		for i := 0; i < n; i++ {
			p.Tags[name()] = name()
		}
	}
	nf := 1 + rng.Intn(9)
	if rng.Intn(16) == 0 {
		nf = 88
	}
	for i := 0; len(p.Fields) < nf; i++ {
		if nf == 88 {
			p.Fields[fmt.Sprintf("_cpu%d", i)] = value()
		} else {
			p.Fields[name()] = value()
		}
	}
	return p
}

// errClass is the errors.Is class of a codec rejection.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, ErrEmptyKey):
		return "ErrEmptyKey"
	case errors.Is(err, ErrDuplicateKey):
		return "ErrDuplicateKey"
	case errors.Is(err, ErrNonFiniteField):
		return "ErrNonFiniteField"
	}
	return "unclassed"
}

// decodeLikeRef holds DecodeLine to the reference decoder on one line:
// the same accept/reject, the same class of rejection, the same point.
func decodeLikeRef(t *testing.T, line string) (Point, error) {
	t.Helper()
	got, gerr := DecodeLine(line)
	want, werr := refDecodeLine(line)
	// Validate meets an empty field key and a non-finite value of another
	// field in map order, so such a line has two classes: the reference
	// must be able to produce the one DecodeLine reported.
	for i := 0; i < 256 && gerr != nil && werr != nil && errClass(gerr) != errClass(werr); i++ {
		_, werr = refDecodeLine(line)
	}
	if errClass(gerr) != errClass(werr) {
		t.Fatalf("DecodeLine(%q): %s (%v), reference: %s (%v)", line, errClass(gerr), gerr, errClass(werr), werr)
	}
	if gerr != nil {
		return Point{}, gerr
	}
	genc, _ := refEncodeLine(got)
	wenc, _ := refEncodeLine(want)
	if !pointsEqual(got, want) || genc != wenc {
		t.Fatalf("DecodeLine(%q) = %+v, reference %+v", line, got, want)
	}
	return got, nil
}

func TestAppendLineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf []byte
	for i := 0; i < 3000; i++ {
		p := codecPoint(rng)
		want, err := refEncodeLine(p)
		if err != nil {
			t.Fatalf("point %d %+v: reference rejects: %v", i, p, err)
		}
		buf, err = AppendLine(append(buf[:0], "prefix"...), &p)
		if err != nil || string(buf) != "prefix"+want {
			t.Fatalf("point %d %+v:\nAppendLine %q (err %v)\nreference  %q", i, p, buf, err, "prefix"+want)
		}
		if got, err := EncodeLine(p); err != nil || got != want {
			t.Fatalf("point %d: EncodeLine %q (err %v), reference %q", i, got, err, want)
		}
		back, err := decodeLikeRef(t, want)
		if err != nil || !pointsEqual(back, p) {
			t.Fatalf("point %d: %q decodes to %+v (err %v), want %+v", i, want, back, err, p)
		}
	}
	// Rejections are Validate's, and leave dst as it was.
	for _, p := range []Point{
		{Fields: map[string]float64{"v": 1}},
		{Measurement: "m"},
		{Measurement: "m", Fields: map[string]float64{"": 1}},
		{Measurement: "m", Fields: map[string]float64{"v": math.NaN()}},
		{Measurement: "m", Fields: map[string]float64{"v": math.Inf(-1)}},
		{Measurement: "m", Tags: map[string]string{"k": ""}, Fields: map[string]float64{"v": 1}},
	} {
		_, werr := refEncodeLine(p)
		got, gerr := AppendLine([]byte("kept"), &p)
		if gerr == nil || errClass(gerr) != errClass(werr) || string(got) != "kept" {
			t.Fatalf("AppendLine(%+v) = %q, %v; reference: %v", p, got, gerr, werr)
		}
		if s, err := EncodeLine(p); err == nil || s != "" {
			t.Fatalf("EncodeLine(%+v) = %q, %v", p, s, err)
		}
	}
}

// mutateLine damages a valid line the ways a broken sender does:
// separators and escapes dropped, doubled or moved, keys repeated or
// emptied, non-finite and malformed numbers, sections added and lost.
func mutateLine(rng *rand.Rand, line string) string {
	b := []byte(line)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		at := rng.Intn(len(b) + 1)
		switch rng.Intn(8) {
		case 0: // insert a structural byte
			b = append(b[:at], append([]byte{` ,=\`[rng.Intn(4)]}, b[at:]...)...)
		case 1: // delete a byte
			if at < len(b) {
				b = append(b[:at], b[at+1:]...)
			}
		case 2: // overwrite a byte
			if at < len(b) {
				b[at] = ` ,=\0aN-+.e`[rng.Intn(11)]
			}
		case 3: // repeat a span (duplicate keys, extra sections)
			end := at + rng.Intn(len(b)-at+1)
			b = append(b[:end], append(append([]byte{` ,`[rng.Intn(2)]}, b[at:end]...), b[end:]...)...)
		case 4: // put a number the codec must refuse, or an odd one, where a value stands
			v := []string{"NaN", "+Inf", "-Inf", "inf", "nan", "1e999", "0x1p-2", "1_0", "", "1\\e5"}[rng.Intn(10)]
			if eq := strings.LastIndexByte(string(b[:at]), '='); eq >= 0 {
				end := eq + 1
				for end < len(b) && b[end] != ',' && b[end] != ' ' {
					end++
				}
				b = append(b[:eq+1], append([]byte(v), b[end:]...)...)
			}
		case 5: // truncate
			b = b[:at]
		case 6: // blank a key: ",k=" -> ",="
			if i := strings.IndexByte(string(b[min(at, len(b)):]), ','); i >= 0 {
				j := at + i + 1
				if k := strings.IndexByte(string(b[j:]), '='); k >= 0 {
					b = append(b[:j], b[j+k:]...)
				}
			}
		case 7: // repeat the first field after the last
			if parts := strings.Split(string(b), " "); len(parts) == 3 {
				first, _, _ := strings.Cut(parts[1], ",")
				b = []byte(parts[0] + " " + parts[1] + "," + first + " " + parts[2])
			}
		}
		if len(b) == 0 {
			break
		}
	}
	return string(b)
}

func TestDecodeLineMatchesReferenceOnMutatedLines(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	classes := map[string]int{}
	for i := 0; i < 2000; i++ {
		p := codecPoint(rng)
		line, err := EncodeLine(p)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 8; m++ {
			_, err := decodeLikeRef(t, mutateLine(rng, line))
			classes[errClass(err)]++
		}
	}
	// The comparison means something only if the mutations reach every
	// outcome.
	for _, c := range []string{"accepted", "unclassed", "ErrEmptyKey", "ErrDuplicateKey", "ErrNonFiniteField"} {
		if classes[c] < 50 {
			t.Errorf("only %d mutated lines came out %s: %v", classes[c], c, classes)
		}
	}
	for _, line := range []string{
		"", " ", "  ", "   ", "m", "m f=1", "m f=1 5 6", `m f=1 5\`, `m\ f=1 5`, "m=x f=1 5", "m,a=b,a=c f=1",
		",a=b f=1 5", " f=1 5", "m,=x f=1,f=2 5", "m =1,f=x 5", "m =1,f=NaN 5", "m f=NaN,=1 5", "m f=1,f=NaN 5",
		"m,a f=1 5", "m,a=b=c f=1 5", "m f 5", "m f=1=2 5", `m f=1\,2 5`, `m f\=1 5`, "m f=1, 5", "m, f=1 5", "m f=1 5,",
	} {
		decodeLikeRef(t, line)
	}
}

// The decoder hands out substrings of its input; what the store keeps of
// a point must not be one of them, or the first line to name a series
// would stay pinned (up to the 8 MB wire cap) for the life of the store.
func TestStoredNamesDoNotAliasDecodedLine(t *testing.T) {
	line := string([]byte("alias_m,alias_k=alias_v alias_f=1,alias_g=2 5")) // a heap copy with a known range
	p, err := DecodeLine(line)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	inLine := func(s string) bool {
		a := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return a >= lo && a < lo+uintptr(len(line))
	}
	if !inLine(p.Measurement) {
		t.Fatal("DecodeLine copied an unescaped name; this test needs it to alias the line")
	}
	db := New()
	if err := db.WriteBatchContext(context.Background(), []Point{p}); err != nil {
		t.Fatal(err)
	}
	var stored []string
	for name, m := range db.measurements {
		stored = append(stored, name, m.name)
		for _, s := range m.series {
			stored = append(stored, s.key)
			stored = append(stored, s.open.fieldNames()...)
			for k, v := range s.tags {
				stored = append(stored, k, v)
			}
			for f := range s.fields {
				stored = append(stored, f)
			}
		}
	}
	for k, v := range db.intern {
		stored = append(stored, k, v)
	}
	for m := range db.qcache.versions {
		stored = append(stored, m)
	}
	if len(stored) < 12 {
		t.Fatalf("found only %d stored names: %q", len(stored), stored)
	}
	for _, s := range stored {
		if inLine(s) {
			t.Errorf("stored name %q aliases the decoded line", s)
		}
	}
}

// codecRow is the generated workloads' row shape: two tags, n fields,
// nothing to escape.
func codecRow(n int) Point {
	p := Point{Measurement: "kernel_percpu_cpu_idle", Tags: map[string]string{"host": "skx", "tag": "t0"},
		Fields: map[string]float64{}, Time: 1722000000000000000}
	for i := 0; i < n; i++ {
		p.Fields[fmt.Sprintf("_cpu%d", i)] = 99.5 + float64(i)/7
	}
	return p
}

func TestLineCodecAllocations(t *testing.T) {
	row8, row88 := codecRow(8), codecRow(88)
	escaped := Point{Measurement: `m s,c=e\b`, Tags: map[string]string{`k ,=\`: `v ,=\`},
		Fields: map[string]float64{`f ,=\`: 1, "plain": 2}, Time: -5}
	buf := make([]byte, 0, 4096)
	for name, p := range map[string]*Point{"8-field row": &row8, "escaped names": &escaped} {
		if n := testing.AllocsPerRun(200, func() { buf, _ = AppendLine(buf[:0], p) }); n != 0 {
			t.Errorf("AppendLine of the %s into a buffer with room: %v allocations, want 0", name, n)
		}
	}
	// A row wider than the stack scratch pays for its key slice only.
	if n := testing.AllocsPerRun(200, func() { buf, _ = AppendLine(buf[:0], &row88) }); n > 1 {
		t.Errorf("AppendLine of the 88-field row: %v allocations, want at most 1", n)
	}
	for _, c := range []struct {
		p   Point
		max float64
	}{{row8, 6}, {row88, 8}} {
		line, _ := EncodeLine(c.p)
		if n := testing.AllocsPerRun(200, func() { DecodeLine(line) }); n > c.max {
			t.Errorf("DecodeLine of the %d-field row: %v allocations, want at most %v", len(c.p.Fields), n, c.max)
		}
	}
}

// sinkLine and sinkPoint keep the benchmarked calls from being optimised
// away.
var (
	sinkLine  []byte
	sinkPoint Point
)

func BenchmarkAppendLine(b *testing.B) {
	for _, n := range []int{8, 88} {
		p := codecRow(n)
		b.Run(fmt.Sprintf("f%d", n), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				buf, _ = AppendLine(buf[:0], &p)
			}
			sinkLine = buf
		})
	}
}

func BenchmarkDecodeLine(b *testing.B) {
	for _, n := range []int{8, 88} {
		line, _ := EncodeLine(codecRow(n))
		b.Run(fmt.Sprintf("f%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPoint, _ = DecodeLine(line)
			}
		})
	}
}

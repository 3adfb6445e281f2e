package tsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Typed line-protocol errors. Fuzzing shook out a family of inputs the
// original codec silently accepted (NaN/Inf field values, duplicate or
// empty keys) or mangled (unescaped backslashes); each class now has a
// sentinel so callers can errors.Is on the rejection reason.
var (
	// ErrNonFiniteField rejects NaN/±Inf field values: they survive a
	// FormatFloat/ParseFloat round trip but poison every aggregation that
	// touches them, so the codec refuses them at both ends.
	ErrNonFiniteField = errors.New("tsdb: non-finite field value")
	// ErrDuplicateKey rejects a tag or field key appearing twice in one
	// line; the old decoder let the last occurrence win silently.
	ErrDuplicateKey = errors.New("tsdb: duplicate key")
	// ErrEmptyKey rejects empty tag/field keys (and empty tag values),
	// which encode to ambiguous ",=v" fragments.
	ErrEmptyKey = errors.New("tsdb: empty key")
)

// AppendLine validates p and appends it to dst in the InfluxDB line
// protocol:
//
//	measurement[,tag=value...] field=value[,field=value...] timestamp
//
// Tag and field keys are sorted for a canonical form: for any point p
// accepted by Validate, DecodeLine of the line returns p and re-encoding
// yields byte-identical output. Backslashes, spaces, commas and equals
// signs in names are escaped with a backslash as in the real protocol.
// It is the only encoder: wire frames, WAL bodies and the spill journal
// are all this one pass, which allocates nothing when dst has room and
// the point has at most 16 tags and fields.
func AppendLine(dst []byte, p *Point) ([]byte, error) {
	var stack [16]rowKV
	dst, _, err := appendLine(dst, p, stack[:0], nil)
	return dst, err
}

// appendLine is AppendLine with its key scratch passed in, and handed
// back grown to fit p, its sorted fields first, so a batch shares one.
func appendLine(dst []byte, p *Point, kvs, prev []rowKV) ([]byte, []rowKV, error) {
	if n := len(p.Tags) + len(p.Fields); n > cap(kvs) {
		kvs = make([]rowKV, 0, n)
	}
	r, kvs, err := pointRow(p, kvs[:0], prev)
	if err != nil {
		return dst, kvs, err
	}
	return appendRow(dst, &r), kvs, nil
}

// EncodeLine is AppendLine into a fresh string.
func EncodeLine(p Point) (string, error) {
	b, err := AppendLine(nil, &p)
	return string(b), err
}

// A row is a point in the form it travels in from the socket to the
// head: tags and fields are slices of one scratch, tags ascending by key
// (they spell the series key), fields too where a line is encoded from
// them.
type row struct {
	meas         string
	tags, fields []rowKV
	time         int64
	// line is the line the row was scanned from when that is in canonical
	// form — unescaped names, no '=' in the measurement, keys strictly
	// ascending, plain decimal timestamp: what appendRow would print, up
	// to the spelling of a number, which replay reads with the same
	// ParseFloat — so a WAL body takes it as it came. "" otherwise.
	line string
}

// rowKV is a tag (key, str) or a field (key, num).
type rowKV struct {
	key, str string
	num      float64
}

func byKey(a, b rowKV) int { return strings.Compare(a.key, b.key) }

// sortKeys sorts a row's keys: a few in place, where calling a comparison
// function would cost more than comparing, more with slices.SortFunc.
func sortKeys(kvs []rowKV) {
	if len(kvs) > 16 {
		slices.SortFunc(kvs, byKey)
		return
	}
	for i := 1; i < len(kvs); i++ {
		for j := i; j > 0 && kvs[j].key < kvs[j-1].key; j-- {
			kvs[j], kvs[j-1] = kvs[j-1], kvs[j]
		}
	}
}

// rowBuf is the flat scratch a batch is built in: one header per row over
// one slice of all their tags and fields, the WAL record printed from
// them, and insertBatch's scratch. A row keeps slices of the backing
// array as it was then, so a rowBuf is appended to, not edited.
type rowBuf struct {
	rows     []row
	kvs      []rowKV
	rec      []byte
	order    []int    // rows' indices in time order, if they are out of it
	written  []string // the distinct measurements of rows
	verbatim int      // rows scanned from a canonical line
}

// spares keeps the rowBufs of finished batches for the next, one for each
// of the two writers the busiest workload runs at once. Not a sync.Pool:
// emptied at each collection, it makes allocations depend on its timing.
var spares [2]atomic.Pointer[rowBuf]

// getRowBuf hands out a spare rowBuf, or a new one.
func getRowBuf() *rowBuf {
	for i := range spares {
		if rb := spares[i].Swap(nil); rb != nil {
			return rb
		}
	}
	return new(rowBuf)
}

// putRowBuf keeps rb, emptied so no batch's names stay reachable, up to
// 4 096 keys and a 256 KiB record (a 256 × 8 batch needs 2 304, ≈ 30 KiB).
// A rejected batch's is not kept: it may hold keys past the end of kvs.
func putRowBuf(rb *rowBuf) {
	if cap(rb.kvs) > 1<<12 || cap(rb.rec) > 1<<18 {
		return
	}
	clear(rb.rows)
	clear(rb.kvs)
	clear(rb.written)
	*rb = rowBuf{rows: rb.rows[:0], kvs: rb.kvs[:0], rec: rb.rec[:0], order: rb.order[:0], written: rb.written[:0]}
	if !spares[0].CompareAndSwap(nil, rb) {
		spares[1].CompareAndSwap(nil, rb)
	}
}

// pointRow validates p — Point.Validate's checks, in its order — and
// collects it, tags and fields sorted as a line is encoded, into a row at
// the end of kvs, which it returns too. A rejected point leaves kvs as it was.
// prev is the batch's previous row's fields, which kvs may overlay: a p
// with as many is read in their order, unsorted, unless a key is missing.
func pointRow(p *Point, kvs, prev []rowKV) (row, []rowKV, error) {
	f0 := len(kvs)
	if p.Measurement == "" {
		return row{}, kvs, errNoMeasurement
	}
	if len(p.Fields) == 0 {
		return row{}, kvs, fmt.Errorf("tsdb: point in %q has no fields", p.Measurement)
	}
	sorted := len(prev) == len(p.Fields)
	for i := 0; sorted && i < len(prev); i++ {
		v, ok := p.Fields[prev[i].key]
		kvs, sorted = append(kvs, rowKV{key: prev[i].key, num: v}), ok
	}
	if !sorted {
		kvs = kvs[:f0]
		for k, v := range p.Fields {
			kvs = append(kvs, rowKV{key: k, num: v})
		}
		sortKeys(kvs[f0:])
	}
	for _, f := range kvs[f0:] {
		if err := validField(p.Measurement, f.key, f.num); err != nil {
			return row{}, kvs[:f0], err
		}
	}
	t0 := len(kvs)
	for k, v := range p.Tags {
		if k == "" || v == "" {
			return row{}, kvs[:f0], fmt.Errorf("%w: point in %q has an empty tag key or value", ErrEmptyKey, p.Measurement)
		}
		kvs = append(kvs, rowKV{key: k, str: v})
	}
	r := row{meas: p.Measurement, tags: kvs[t0:], fields: kvs[f0:t0], time: p.Time}
	sortKeys(r.tags)
	return r, kvs, nil
}

// appendRow appends the line of a row whose tags and fields are sorted:
// the one it was scanned from when that is canonical, else the encoding.
func appendRow(dst []byte, r *row) []byte {
	if r.line != "" {
		return append(dst, r.line...)
	}
	dst = appendEscaped(dst, r.meas)
	for _, t := range r.tags {
		dst = append(dst, ',')
		dst = appendEscaped(dst, t.key)
		dst = append(dst, '=')
		dst = appendEscaped(dst, t.str)
	}
	sep := byte(' ')
	for _, f := range r.fields {
		dst = append(dst, sep)
		dst = appendEscaped(dst, f.key)
		dst = append(dst, '=')
		dst = appendFloat(dst, f.num)
		sep = ','
	}
	dst = append(dst, ' ')
	return strconv.AppendInt(dst, r.time, 10)
}

// appendEscaped appends s with a backslash before every backslash,
// comma, space and equals sign. The backslash itself must be escaped:
// without it a name ending in '\' swallows the section separator on
// decode and the line desyncs.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\', ',', ' ', '=':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\')
			start = i
		}
	}
	return append(dst, s[start:]...)
}

// DecodeLine parses one line-protocol line: the row scan, then the two
// maps. A name without a backslash is a substring of line, so a caller
// that keeps one beyond the line's lifetime clones it (interner.intern
// does).
func DecodeLine(line string) (Point, error) {
	// One tag or field per separator; capped: nothing has checked the line yet.
	r, _, err := scanRow(line, make([]rowKV, 0, min(strings.Count(line, ",")+1, 1024)))
	if err != nil {
		return Point{}, err
	}
	p := Point{Measurement: r.meas, Tags: make(map[string]string, len(r.tags)),
		Fields: make(map[string]float64, len(r.fields)), Time: r.time}
	for _, t := range r.tags {
		p.Tags[t.key] = t.str
	}
	for _, f := range r.fields {
		p.Fields[f.key] = f.num
	}
	return p, nil
}

// scan appends the row of one line to rb's rows.
func (rb *rowBuf) scan(line string) (err error) {
	var r row
	if r, rb.kvs, err = scanRow(line, rb.kvs); err == nil {
		rb.rows = append(rb.rows, r)
		if r.line != "" {
			rb.verbatim++
		}
	}
	return err
}

// scanRow parses one line in a single left-to-right pass into a row
// built at the end of kvs, which it returns too, making every check a
// point must pass on the way: the one reader of the grammar, for wire
// frames, WAL replay and DecodeLine. A rejected line leaves kvs as it was;
// its error is the first defect the pass met, unless the line does not
// have exactly three sections: then that, whatever else is wrong with it
// (recounted on the error path only).
func scanRow(line string, kvs []rowKV) (row, []rowKV, error) {
	t0 := len(kvs)
	fail := func(format string, args ...any) (row, []rowKV, error) {
		sections := 1
		for i := 0; i < len(line); i++ {
			switch line[i] {
			case '\\':
				i++
			case ' ':
				sections++
			}
		}
		if sections != 3 {
			format, args = "tsdb: line protocol needs 3 sections, got %d in %q", []any{sections, line}
		}
		return row{}, kvs[:t0], fmt.Errorf(format, args...)
	}
	s := lineScanner{line: line}
	raw, esc, stop := s.cut(false)
	meas := unescape(raw, esc)
	canonical := !esc && strings.IndexByte(raw, '=') < 0
	var seen map[string]struct{}
	for stop == ',' {
		kraw, kesc, kstop := s.cut(true)
		vraw, vesc, vstop := s.cut(true)
		if kstop != '=' || vstop == '=' { // not exactly one '=' in the pair
			return fail("tsdb: bad tag %q", kraw)
		}
		k, v := unescape(kraw, kesc), unescape(vraw, vesc)
		if k == "" || v == "" {
			return fail("%w: tag %q=%q", ErrEmptyKey, k, v)
		}
		if !distinct(&seen, kvs[t0:], k) {
			return fail("%w: tag %q", ErrDuplicateKey, k)
		}
		kvs = append(kvs, rowKV{key: k, str: v})
		canonical = canonical && !kesc && !vesc
		stop = vstop
	}
	f0, ascending := len(kvs), seen == nil
	seen = nil
	for stop = ','; stop == ','; {
		kraw, kesc, kstop := s.cut(true)
		var vraw string
		if vraw, _, stop = s.cut(true); kstop != '=' || stop == '=' {
			return fail("tsdb: bad field %q", kraw)
		}
		// The value is parsed as written: an escape in it is a bad number.
		v, err := strconv.ParseFloat(vraw, 64)
		if err != nil {
			return fail("tsdb: bad field value %q: %v", vraw, err)
		}
		k := unescape(kraw, kesc)
		if !distinct(&seen, kvs[f0:], k) {
			return fail("%w: field %q", ErrDuplicateKey, k)
		}
		kvs = append(kvs, rowKV{key: k, num: v})
		canonical = canonical && !kesc
	}
	ts := line[s.i:]
	t, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		return fail("tsdb: bad timestamp %q: %v", ts, err)
	}
	// What Point.Validate checks that the pass has not met yet.
	if meas == "" {
		return fail("%w", errNoMeasurement)
	}
	for _, f := range kvs[f0:] {
		if err := validField(meas, f.key, f.num); err != nil {
			return fail("%w", err)
		}
	}
	r := row{meas: meas, tags: kvs[t0:f0], fields: kvs[f0:], time: t}
	if !ascending || seen != nil {
		sortKeys(r.tags)
		sortKeys(r.fields)
	} else if digits := strings.TrimPrefix(ts, "-"); canonical && ts[0] != '+' && (digits[0] != '0' || ts == "0") {
		r.line = line
	}
	return r, kvs, nil
}

// distinct reports whether k is not a key of sec, the section it is
// about to join. Strictly ascending keys cannot repeat, so there is a set
// to ask only from the first key that does not follow its predecessor.
func distinct(seen *map[string]struct{}, sec []rowKV, k string) bool {
	if *seen == nil {
		if len(sec) == 0 || sec[len(sec)-1].key < k {
			return true
		}
		*seen = make(map[string]struct{}, len(sec)+1)
		for i := range sec {
			(*seen)[sec[i].key] = struct{}{}
		}
	}
	_, dup := (*seen)[k]
	(*seen)[k] = struct{}{}
	return !dup
}

// lineScanner walks a line one name at a time.
type lineScanner struct {
	line string
	i    int
}

// cut returns the text from s.i up to the next unescaped space, comma
// or (when eq is set: everywhere but in the measurement) equals sign,
// whether it holds a backslash, and that stop byte — 0 at the end of the
// line — and moves s.i past the stop.
func (s *lineScanner) cut(eq bool) (raw string, esc bool, stop byte) {
	start := s.i
	for i := start; i < len(s.line); i++ {
		switch c := s.line[i]; {
		case c == '\\':
			esc = true
			i++
		case c == ' ' || c == ',' || c == '=' && eq:
			s.i = i + 1
			return s.line[start:i], esc, c
		}
	}
	s.i = len(s.line)
	return s.line[start:], esc, 0
}

// unescape drops the backslash of every escape pair in raw; a name
// with none (esc unset) is returned as it is, sharing the line's bytes.
func unescape(raw string, esc bool) string {
	if !esc {
		return raw
	}
	b := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\\' && i+1 < len(raw) {
			i++
		}
		b = append(b, raw[i])
	}
	return string(b)
}

var errNoMeasurement = errors.New("tsdb: point has no measurement")

// validField rejects an empty field key, and a NaN or ±Inf value, with
// the typed errors.
func validField(measurement, key string, v float64) error {
	if key == "" {
		return fmt.Errorf("%w: point in %q has an empty field name", ErrEmptyKey, measurement)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s in %q", ErrNonFiniteField, key, measurement)
	}
	return nil
}

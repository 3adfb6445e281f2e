package tsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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
// the point has at most 16 tags and 16 fields.
func AppendLine(dst []byte, p *Point) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	return appendLine(dst, p), nil
}

// EncodeLine is AppendLine into a fresh string.
func EncodeLine(p Point) (string, error) {
	b, err := AppendLine(nil, &p)
	return string(b), err
}

// appendLine encodes a point its caller has already validated. Up to 16
// keys sort on its own stack.
func appendLine(dst []byte, p *Point) []byte {
	var stack [16]string
	dst = appendEscaped(dst, p.Measurement)
	keys := sortedKeys(stack[:0], p.Tags)
	for _, k := range keys {
		dst = append(dst, ',')
		dst = appendEscaped(dst, k)
		dst = append(dst, '=')
		dst = appendEscaped(dst, p.Tags[k])
	}
	sep := byte(' ')
	for _, k := range sortedKeys(keys[:0], p.Fields) {
		dst = append(dst, sep)
		dst = appendEscaped(dst, k)
		dst = append(dst, '=')
		dst = strconv.AppendFloat(dst, p.Fields[k], 'g', -1, 64)
		sep = ','
	}
	dst = append(dst, ' ')
	return strconv.AppendInt(dst, p.Time, 10)
}

// linesSizeHint is the buffer capacity to encode ps into: room for names
// and numbers of the usual widths, a separator after each line and the
// length in front of it. A batch that needs more grows the buffer.
func linesSizeHint(ps []Point) int {
	size := 0
	for i := range ps {
		size += len(ps[i].Measurement) + 32*(len(ps[i].Tags)+len(ps[i].Fields)) + 24
	}
	return size
}

// sortedKeys returns m's keys, sorted, in dst if they fit there.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	if len(m) > cap(dst) {
		dst = make([]string, 0, len(m))
	}
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
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

// DecodeLine parses one line-protocol line in a single left-to-right
// scan. A name without a backslash is a substring of line, so a caller
// that keeps one beyond the line's lifetime clones it (interner.intern
// does). A line that does not have exactly three sections is reported as
// that, whatever else is wrong with it.
func DecodeLine(line string) (Point, error) {
	p, err := scanLine(line)
	if err == nil {
		return p, nil
	}
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
		err = fmt.Errorf("tsdb: line protocol needs 3 sections, got %d in %q", sections, line)
	}
	return Point{}, err
}

// scanLine is DecodeLine's scan; on a line with the wrong number of
// sections its error is whichever defect it met first.
func scanLine(line string) (Point, error) {
	s := lineScanner{line: line}
	raw, esc, stop := s.cut(false)
	p := Point{Measurement: unescape(raw, esc), Tags: map[string]string{}}
	for stop == ',' {
		kraw, kesc, kstop := s.cut(true)
		vraw, vesc, vstop := s.cut(true)
		if kstop != '=' || vstop == '=' { // not exactly one '=' in the pair
			return p, fmt.Errorf("tsdb: bad tag %q", kraw)
		}
		k, v := unescape(kraw, kesc), unescape(vraw, vesc)
		if k == "" || v == "" {
			return p, fmt.Errorf("%w: tag %q=%q", ErrEmptyKey, k, v)
		}
		if _, dup := p.Tags[k]; dup {
			return p, fmt.Errorf("%w: tag %q", ErrDuplicateKey, k)
		}
		p.Tags[k] = v
		stop = vstop
	}
	// Pre-sized from the separator count, capped: nothing has checked it yet.
	p.Fields = make(map[string]float64, min(1+strings.Count(line[s.i:], ","), 1024))
	for stop = ','; stop == ','; {
		kraw, kesc, kstop := s.cut(true)
		var vraw string
		if vraw, _, stop = s.cut(true); kstop != '=' || stop == '=' {
			return p, fmt.Errorf("tsdb: bad field %q", kraw)
		}
		// The value is parsed as written: an escape in it is a bad number.
		v, err := strconv.ParseFloat(vraw, 64)
		if err != nil {
			return p, fmt.Errorf("tsdb: bad field value %q: %v", vraw, err)
		}
		k := unescape(kraw, kesc)
		if _, dup := p.Fields[k]; dup {
			return p, fmt.Errorf("%w: field %q", ErrDuplicateKey, k)
		}
		p.Fields[k] = v
	}
	ts, err := strconv.ParseInt(line[s.i:], 10, 64)
	if err != nil {
		return p, fmt.Errorf("tsdb: bad timestamp %q: %v", line[s.i:], err)
	}
	p.Time = ts
	return p, p.Validate()
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

// validateFinite rejects NaN and ±Inf field values with the typed error.
func validateFinite(measurement, key string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s in %q", ErrNonFiniteField, key, measurement)
	}
	return nil
}

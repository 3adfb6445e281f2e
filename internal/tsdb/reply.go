package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// A QUERY reply is one line of JSON: exactly what encoding/json's Marshal
// writes for the *Result a table builds — field order, null for a nil
// slice, map keys in byte order, its string escaping and its float
// spelling — so the wire format is the one it always was. appendTable
// writes it from the table without reflection, decodeResult reads that
// grammar back in one pass, and encoding/json stays in the tests as the
// reference both are held to.

const hexDigits = "0123456789abcdef"

// asciiEscape is how encoding/json writes each ASCII byte inside a
// string: 0 as itself, 'u' as \u00XX (control bytes, and <, > and &),
// any other value is the letter of its short escape.
var asciiEscape = func() (t [utf8.RuneSelf]byte) {
	for b := range t[:' '] {
		t[b] = 'u'
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// appendTable appends the reply for t to dst. The columns are sorted by
// name and their names escaped once per result, not once per row; a row
// writes its present cells in that order, a repeated name once (the
// engine repeats a column only as a repeated expression, with the same
// cells). A value JSON cannot spell (NaN, ±Inf) fails the whole reply
// with encoding/json's error text.
func appendTable(dst []byte, t *table) ([]byte, error) {
	dst = appendJSONString(append(dst, `{"Measurement":`...), t.Measurement)
	dst = append(dst, `,"Columns":`...)
	if t.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range t.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Rows":`...)
	if t.Times == nil {
		return append(dst, "null}"...), nil
	}
	// The keys in byte order, each `"name":` spelled in keys up to its
	// end; scratch on the stack up to 16 columns and 512 bytes of names.
	var stack [16]replyKey
	var names [512]byte
	order, keys := stack[:0], names[:0]
	for ci := range t.Columns {
		order = append(order, replyKey{col: ci})
	}
	slices.SortStableFunc(order, func(a, b replyKey) int { return strings.Compare(t.Columns[a.col], t.Columns[b.col]) })
	kept := 0
	for i, k := range order {
		if i+1 < len(order) && t.Columns[order[i+1].col] == t.Columns[k.col] {
			continue
		}
		keys = append(appendJSONString(keys, t.Columns[k.col]), ':')
		order[kept] = replyKey{k.col, len(keys)}
		kept++
	}
	order = order[:kept]
	dst = append(dst, '[')
	start := len(dst)
	for i, ts := range t.Times {
		if i == 1 {
			// The rows of one result are alike: size for the rest from the
			// first, with room for longer numbers.
			n := (len(dst) - start + 1) * (len(t.Times) - 1)
			dst = slices.Grow(dst, n+n/4)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"Time":`...), ts, 10)
		dst = append(dst, `,"Values":{`...)
		from, sep := 0, false
		for _, k := range order {
			key := keys[from:k.end]
			from = k.end
			v := t.Cols[k.col][i]
			if isAbsent(v) {
				continue
			}
			if sep {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendJSONFloat(append(dst, key...), v); err != nil {
				return nil, err
			}
			sep = true
		}
		dst = append(dst, "}}"...)
	}
	return append(dst, "]}"...), nil
}

// replyKey is a column in key order and where its spelled key ends.
type replyKey struct {
	col, end int
}

// appendJSONString writes s quoted as encoding/json does, HTML escaping
// included.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r < utf8.RuneSelf {
			if asciiEscape[r] == 0 {
				i++
				continue
			}
		} else if r, size = utf8.DecodeRuneInString(s[i:]); size > 1 && r != '\u2028' && r != '\u2029' {
			i += size
			continue
		}
		// r is to be escaped; an invalid byte is RuneError, written \ufffd.
		dst = append(dst, s[start:i]...)
		if r < utf8.RuneSelf && asciiEscape[r] != 'u' {
			dst = append(dst, '\\', asciiEscape[r])
		} else {
			dst = appendU(dst, r)
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendU writes r as \u and four lowercase hex digits.
func appendU(dst []byte, r rune) []byte {
	return append(dst, '\\', 'u', hexDigits[r>>12&0xf], hexDigits[r>>8&0xf], hexDigits[r>>4&0xf], hexDigits[r&0xf])
}

// appendJSONFloat writes f as encoding/json does: 'f' format unless
// |f| < 1e-6 or |f| >= 1e21, then 'e' with a one-digit negative exponent
// not padded (1e-7, not 1e-07). A value of at most 15 significant digits
// that is an integer or lies in [1e-4, 1e6) is spelled from its digits.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if out, ok := appendDecimal(dst, f); ok {
		return out, nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// decodeResult reads one reply line (without its newline) in one pass.
// It accepts exactly what appendResult writes — every number and escape
// in its one spelling, row keys strictly ascending — so a decoded reply
// encodes back to the same bytes, except that \ufffd (invalid UTF-8 the
// server held) decodes to U+FFFD, as encoding/json decodes it. A row key
// equal to a column name is that column's string.
func decodeResult(line []byte) (*Result, error) {
	d := replyDecoder{b: line}
	res := d.result()
	if d.pos < len(line) {
		d.fail(errors.New("trailing bytes"))
	}
	if d.err != nil {
		return nil, fmt.Errorf("tsdb: bad query response: %v", d.err)
	}
	return res, nil
}

var errReplySyntax = errors.New("unexpected input")

// replyDecoder keeps its first error and where it struck: from then on no
// literal matches, every list ends and the result is dropped.
type replyDecoder struct {
	b   []byte
	pos int
	buf []byte // the last string read, unescaped
	err error
}

func (d *replyDecoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%v at byte %d", err, d.pos)
	}
}

func (d *replyDecoder) lit(s string) bool {
	if d.err != nil || len(d.b)-d.pos < len(s) || string(d.b[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

func (d *replyDecoder) expect(s string) {
	if !d.lit(s) {
		d.fail(errReplySyntax)
	}
}

// next reports whether a list with n elements read so far has another
// before its end, consuming the end or the comma.
func (d *replyDecoder) next(end string, n int) bool {
	if d.lit(end) {
		return false
	}
	if n > 0 {
		d.expect(",")
	}
	return d.err == nil
}

func (d *replyDecoder) result() *Result {
	d.expect(`{"Measurement":`)
	res := &Result{Measurement: string(d.str())}
	d.expect(`,"Columns":`)
	if !d.lit("null") {
		d.expect("[")
		res.Columns = []string{}
		for d.next("]", len(res.Columns)) {
			res.Columns = append(res.Columns, string(d.str()))
		}
	}
	d.expect(`,"Rows":`)
	if !d.lit("null") {
		d.expect("[")
		var stack [16]string
		keys := append(stack[:0], res.Columns...)
		slices.Sort(keys)
		res.Rows = []Row{}
		for d.next("]", len(res.Rows)) {
			start := d.pos
			res.Rows = append(res.Rows, d.row(keys, len(res.Columns)))
			if len(res.Rows) == 1 {
				// The rows of one result are alike: size from the first,
				// with room for shorter numbers.
				n := (len(d.b) - d.pos) / (d.pos - start + 1)
				res.Rows = slices.Grow(res.Rows, n+n/4)
			}
		}
	}
	d.expect("}")
	return res
}

// row reads one row; keys are the result's columns in byte order.
func (d *replyDecoder) row(keys []string, ncols int) Row {
	d.expect(`{"Time":`)
	num := d.number()
	t, err := strconv.ParseInt(string(num), 10, 64)
	// ParseInt's own spellings that AppendInt never writes: +5, 05, -0.
	if err != nil || num[0] == '+' || len(num) > 1 && (num[0] == '0' || num[0] == '-' && num[1] == '0') {
		d.fail(fmt.Errorf("bad time %q", num))
	}
	r := Row{Time: t}
	d.expect(`,"Values":`)
	if !d.lit("null") {
		d.expect("{")
		r.Values = make(map[string]float64, ncols)
		next, prev := 0, ""
		for d.next("}", len(r.Values)) {
			kb := d.str()
			// Keys ascend, so the column cursor only moves forward.
			for next < len(keys) && keys[next] < string(kb) {
				next++
			}
			var k string
			if next < len(keys) && keys[next] == string(kb) {
				k = keys[next]
			} else {
				k = string(kb)
			}
			if len(r.Values) > 0 && k <= prev {
				d.fail(fmt.Errorf("key %q out of order", k))
			}
			d.expect(":")
			num := d.number()
			v, err := strconv.ParseFloat(string(num), 64)
			spelled := err == nil && plainDecimal(num)
			if err == nil && !spelled {
				var tmp [32]byte
				f, _ := appendJSONFloat(tmp[:0], v)
				spelled = string(f) == string(num)
			}
			if !spelled {
				d.fail(fmt.Errorf("bad value %q", num))
			}
			r.Values[k], prev = v, k
		}
	}
	d.expect("}")
	return r
}

// plainDecimal reports whether num is appendJSONFloat's spelling of its
// value without spelling it again: -?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?
// with at most 15 significant digits, which a float64 keeps, and at most
// five zeros after "0." — below 1e-6 the spelling is 'e'.
func plainDecimal(num []byte) bool {
	if len(num) > 0 && num[0] == '-' {
		num = num[1:]
	}
	for _, c := range num {
		if c-'0' >= 10 && c != '.' {
			return false
		}
	}
	ip, frac, dot := bytes.Cut(num, []byte{'.'})
	if len(ip) == 0 || len(ip) > 1 && ip[0] == '0' || dot && (len(frac) == 0 || frac[len(frac)-1] == '0' || bytes.IndexByte(frac, '.') >= 0) {
		return false
	}
	sig := len(ip) + len(frac)
	if ip[0] == '0' {
		lead := len(frac) - len(bytes.TrimLeft(frac, "0"))
		if lead > 5 {
			return false
		}
		sig = len(frac) - lead
	}
	return sig <= 15
}

// number returns the run of bytes a number's spelling may hold, at most
// 32 — past the longest appendJSONFloat writes (25), and short enough
// that parsing it needs no heap copy. Its caller checks the spelling.
func (d *replyDecoder) number() []byte {
	b, n := d.b[d.pos:min(d.pos+32, len(d.b))], 0
	for n < len(b) && (b[n]-'0' < 10 || b[n] == '-' || b[n] == '.' || b[n] == 'e' || b[n] == '+') {
		n++
	}
	d.pos += n
	return b[:n]
}

// str reads a string as appendJSONString spells it into d.buf, which is
// valid until the next call.
func (d *replyDecoder) str() []byte {
	d.expect(`"`)
	start := d.pos
	d.buf = d.buf[:0]
	for d.err == nil && d.pos < len(d.b) {
		switch c := d.b[d.pos]; {
		case c == '"':
			d.buf = append(d.buf, d.b[start:d.pos]...)
			d.pos++
			return d.buf
		case c == '\\':
			d.buf = append(d.buf, d.b[start:d.pos]...)
			d.buf = utf8.AppendRune(d.buf, d.escape())
			start = d.pos
		case c < utf8.RuneSelf && asciiEscape[c] != 0:
			d.fail(fmt.Errorf("byte %#x not escaped", c))
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.b[d.pos:])
			if size == 1 || r == '\u2028' || r == '\u2029' {
				d.fail(errors.New("invalid or unescaped UTF-8"))
			}
			d.pos += size
		}
	}
	d.fail(errors.New("unterminated string"))
	return nil
}

// escape reads the escape at d.pos: a short one, or the \uXXXX that
// appendJSONString writes for its rune.
func (d *replyDecoder) escape() rune {
	if d.pos+1 < len(d.b) && d.b[d.pos+1] != 'u' && d.b[d.pos+1] != 0 {
		if i := bytes.IndexByte(asciiEscape[:], d.b[d.pos+1]); i >= 0 {
			d.pos += 2
			return rune(i)
		}
	}
	esc := d.b[d.pos:min(d.pos+6, len(d.b))]
	r, err := strconv.ParseUint(string(esc[min(2, len(esc)):]), 16, 16)
	var tmp [6]byte
	if err != nil || string(appendU(tmp[:0], rune(r))) != string(esc) ||
		!(r < utf8.RuneSelf && asciiEscape[r] == 'u' || r == '\u2028' || r == '\u2029' || r == utf8.RuneError) {
		d.fail(fmt.Errorf("bad escape %q", esc))
	}
	d.pos += len(esc)
	return rune(r)
}

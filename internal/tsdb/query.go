package tsdb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Aggregate is one aggregation column of a SELECT: fn applied to a
// field. Fn is one of "mean", "min", "max", "sum", "count" or "p"
// (percentile, with Pct in [0,100] — p50, p99, p99.9 …).
type Aggregate struct {
	Fn    string
	Field string
	// Pct is the percentile when Fn == "p"; ignored otherwise.
	Pct float64
}

// appendFnLabel appends the function name ("mean", "p99", "p99.9", …).
func (a Aggregate) appendFnLabel(b []byte) []byte {
	b = append(b, a.Fn...)
	if a.Fn == "p" {
		b = strconv.AppendFloat(b, a.Pct, 'f', -1, 64)
	}
	return b
}

// Column is the result-column name of the aggregate, e.g. "mean(_cpu0)".
func (a Aggregate) Column() string {
	var buf [64]byte
	return string(append(append(append(a.appendFnLabel(buf[:0]), '('), a.Field...), ')'))
}

// Query is the SELECT subset P-MoVE auto-generates (Listing 3), plus
// the aggregation surface the dashboards fold it into:
//
//	SELECT "_cpu0", "_cpu1" FROM "kernel_percpu_cpu_idle"
//	    WHERE tag="278e26c2-..." [AND time >= <ns> AND time <= <ns>]
//
//	SELECT mean("_cpu0"), p99("_cpu0") FROM "kernel_percpu_cpu_idle"
//	    WHERE tag="278e26c2-..." GROUP BY time(5s)
//
// Fields may be "*". Tag comparisons are equality only. A query holds
// either raw Fields or Aggregates, never both.
type Query struct {
	Fields      []string
	Aggregates  []Aggregate
	Measurement string
	TagFilter   map[string]string
	From, To    int64 // ns bounds; 0 = unbounded
	// GroupBy is the window width in nanoseconds (GROUP BY time(...));
	// 0 folds the whole time range into one row. Valid only with
	// Aggregates.
	GroupBy int64
}

// queryKeywords are the bare words the parser claims; tag keys that
// collide must be quoted in the canonical rendering.
var queryKeywords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"group": true, "by": true, "time": true,
}

// bareKeySafe reports whether a tag key re-tokenizes as the same single
// bare word — otherwise the canonical form quotes it.
func bareKeySafe(k string) bool {
	if k == "" {
		return false
	}
	if queryKeywords[strings.ToLower(k)] {
		return false
	}
	return !strings.ContainsAny(k, tokenStops)
}

// String renders the query back to its canonical text form: aggregate
// columns before raw fields, WHERE conditions with tag keys sorted,
// time bounds last, then GROUP BY. ParseQuery(q.String()) reproduces q
// exactly, and the rendering is the query-cache key.
func (q *Query) String() string {
	var buf [256]byte
	b := append(buf[:0], "SELECT "...)
	for i, a := range q.Aggregates {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(strconv.AppendQuote(append(a.appendFnLabel(b), '('), a.Field), ')')
	}
	for i, f := range q.Fields {
		if i > 0 || len(q.Aggregates) > 0 {
			b = append(b, ", "...)
		}
		if f == "*" {
			b = append(b, '*')
		} else {
			b = strconv.AppendQuote(b, f)
		}
	}
	b = strconv.AppendQuote(append(b, " FROM "...), q.Measurement)
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k := range q.TagFilter {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sep := " WHERE "
	for _, k := range keys {
		if b = append(b, sep...); bareKeySafe(k) {
			b = append(b, k...)
		} else {
			b = strconv.AppendQuote(b, k)
		}
		b = strconv.AppendQuote(append(b, '='), q.TagFilter[k])
		sep = " AND "
	}
	if q.From != 0 {
		b = strconv.AppendInt(append(append(b, sep...), "time >= "...), q.From, 10)
		sep = " AND "
	}
	if q.To != 0 {
		b = strconv.AppendInt(append(append(b, sep...), "time <= "...), q.To, 10)
	}
	if q.GroupBy > 0 {
		b = append(append(append(b, " GROUP BY time("...), time.Duration(q.GroupBy).String()...), ')')
	}
	return string(b)
}

// tokenStops are the bytes that terminate a bare word.
const tokenStops = " \t\r\n,=<>*\"'()"

// tokenizer for the query text.
type tokenizer struct {
	s   string
	pos int
}

func (t *tokenizer) skipSpace() {
	for t.pos < len(t.s) && strings.IndexByte(" \t\r\n", t.s[t.pos]) >= 0 {
		t.pos++
	}
}

// next returns the next token: a quoted string (decoded), a symbol
// (, = < > ( ) *), or a bare word. Double-quoted strings honour Go
// escape sequences (the canonical renderer emits %q); single-quoted
// strings are taken raw for line-protocol compatibility.
func (t *tokenizer) next() (string, bool, error) {
	t.skipSpace()
	if t.pos >= len(t.s) {
		return "", false, nil
	}
	c := t.s[t.pos]
	switch c {
	case '"':
		end := t.pos + 1
		for end < len(t.s) && t.s[end] != '"' {
			if t.s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(t.s) {
			return "", false, fmt.Errorf("tsdb: unterminated quote at %d", t.pos)
		}
		tok, uerr := strconv.Unquote(t.s[t.pos : end+1])
		if uerr != nil {
			return "", false, fmt.Errorf("tsdb: bad quoted string at %d: %v", t.pos, uerr)
		}
		t.pos = end + 1
		return tok, true, nil
	case '\'':
		end := t.pos + 1
		for end < len(t.s) && t.s[end] != '\'' {
			end++
		}
		if end >= len(t.s) {
			return "", false, fmt.Errorf("tsdb: unterminated quote at %d", t.pos)
		}
		tok := t.s[t.pos+1 : end]
		t.pos = end + 1
		return tok, true, nil
	case ',', '=', '*', '(', ')':
		t.pos++
		return string(c), false, nil
	case '<', '>':
		if t.pos+1 < len(t.s) && t.s[t.pos+1] == '=' {
			t.pos += 2
			return string(c) + "=", false, nil
		}
		t.pos++
		return string(c), false, nil
	}
	end := t.pos
	for end < len(t.s) && !strings.ContainsRune(tokenStops, rune(t.s[end])) {
		end++
	}
	tok := t.s[t.pos:end]
	t.pos = end
	return tok, false, nil
}

// peek returns the next token without consuming it.
func (t *tokenizer) peek() (string, bool, error) {
	save := t.pos
	tok, quoted, err := t.next()
	t.pos = save
	return tok, quoted, err
}

// aggFn resolves an aggregate function name: mean/min/max/sum/count,
// or pNN with NN a percentile in [0,100].
func aggFn(tok string) (string, float64, error) {
	l := strings.ToLower(tok)
	switch l {
	case "mean", "min", "max", "sum", "count":
		return l, 0, nil
	}
	if len(l) > 1 && l[0] == 'p' {
		if v, err := strconv.ParseFloat(l[1:], 64); err == nil && v >= 0 && v <= 100 {
			return "p", v, nil
		}
	}
	return "", 0, fmt.Errorf("tsdb: unknown aggregate function %q", tok)
}

// parseAggregate consumes `(field)` after fn was recognised.
func parseAggregate(tz *tokenizer, fn string, pct float64) (Aggregate, error) {
	var a Aggregate
	open, _, err := tz.next()
	if err != nil {
		return a, err
	}
	if open != "(" {
		return a, fmt.Errorf("tsdb: expected '(' after aggregate function, got %q", open)
	}
	field, quoted, err := tz.next()
	if err != nil {
		return a, err
	}
	if field == "" && !quoted {
		return a, fmt.Errorf("tsdb: aggregate has no field argument")
	}
	if field == "*" && !quoted {
		return a, fmt.Errorf("tsdb: aggregates require a named field, not *")
	}
	closeTok, cq, err := tz.next()
	if err != nil {
		return a, err
	}
	if cq || closeTok != ")" {
		return a, fmt.Errorf("tsdb: expected ')' closing aggregate, got %q", closeTok)
	}
	return Aggregate{Fn: fn, Field: field, Pct: pct}, nil
}

// parseGroupBy consumes `BY time(<interval>)` after GROUP was read.
// The interval is a Go duration ("5s", "1m30s") or a raw nanosecond
// integer; it must be positive.
func parseGroupBy(tz *tokenizer) (int64, error) {
	by, bq, err := tz.next()
	if err != nil {
		return 0, err
	}
	if bq || !strings.EqualFold(by, "by") {
		return 0, fmt.Errorf("tsdb: expected BY after GROUP, got %q", by)
	}
	tw, tq, err := tz.next()
	if err != nil {
		return 0, err
	}
	if tq || !strings.EqualFold(tw, "time") {
		return 0, fmt.Errorf("tsdb: GROUP BY supports only time(...), got %q", tw)
	}
	open, _, err := tz.next()
	if err != nil {
		return 0, err
	}
	if open != "(" {
		return 0, fmt.Errorf("tsdb: expected '(' after GROUP BY time, got %q", open)
	}
	ival, iq, err := tz.next()
	if err != nil {
		return 0, err
	}
	if ival == "" && !iq {
		return 0, fmt.Errorf("tsdb: GROUP BY time() has no interval")
	}
	// Only an all-digit interval is read by strconv, so "16s" costs no error.
	var ns int64
	if strings.Trim(ival, "0123456789") == "" {
		ns, err = strconv.ParseInt(ival, 10, 64)
	} else {
		d, derr := time.ParseDuration(ival)
		ns, err = int64(d), derr
	}
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("tsdb: GROUP BY interval must be a positive duration or nanosecond count, got %q", ival)
	}
	closeTok, cq, err := tz.next()
	if err != nil {
		return 0, err
	}
	if cq || closeTok != ")" {
		return 0, fmt.Errorf("tsdb: expected ')' closing GROUP BY time, got %q", closeTok)
	}
	rest, rq, err := tz.next()
	if err != nil {
		return 0, err
	}
	if rest != "" || rq {
		return 0, fmt.Errorf("tsdb: unexpected token %q after GROUP BY", rest)
	}
	return ns, nil
}

// ParseQuery parses the SELECT subset (raw fields or aggregate calls,
// equality tag filters, time bounds, GROUP BY time windowing).
func ParseQuery(stmt string) (*Query, error) {
	tz := &tokenizer{s: stmt}
	word, _, err := tz.next()
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(word, "select") {
		return nil, fmt.Errorf("tsdb: expected SELECT, got %q", word)
	}
	q := &Query{TagFilter: map[string]string{}}
	// Field list: raw fields, or aggregate calls fn(field).
	for {
		tok, quoted, err := tz.next()
		if err != nil {
			return nil, err
		}
		if tok == "" && !quoted {
			return nil, fmt.Errorf("tsdb: unexpected end of query in field list")
		}
		if !quoted && strings.EqualFold(tok, "from") {
			break
		}
		if !quoted && tok == "," {
			continue
		}
		if !quoted {
			if nxt, nq, perr := tz.peek(); perr == nil && !nq && nxt == "(" {
				fn, pct, ferr := aggFn(tok)
				if ferr != nil {
					return nil, ferr
				}
				a, aerr := parseAggregate(tz, fn, pct)
				if aerr != nil {
					return nil, aerr
				}
				q.Aggregates = append(q.Aggregates, a)
				continue
			}
		}
		q.Fields = append(q.Fields, tok)
	}
	if len(q.Fields) == 0 && len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("tsdb: empty field list")
	}
	if len(q.Fields) > 0 && len(q.Aggregates) > 0 {
		return nil, fmt.Errorf("tsdb: cannot mix raw fields and aggregates in one SELECT")
	}
	// Measurement.
	meas, mq, err := tz.next()
	if err != nil {
		return nil, err
	}
	if meas == "" && !mq {
		return nil, fmt.Errorf("tsdb: missing measurement after FROM")
	}
	q.Measurement = meas
	// Optional WHERE / GROUP BY.
	tok, tq, err := tz.next()
	if err != nil {
		return nil, err
	}
	switch {
	case tok == "" && !tq:
		return q, nil
	case !tq && strings.EqualFold(tok, "group"):
		gb, gerr := parseGroupBy(tz)
		if gerr != nil {
			return nil, gerr
		}
		q.GroupBy = gb
		if len(q.Aggregates) == 0 {
			return nil, fmt.Errorf("tsdb: GROUP BY time requires aggregate fields")
		}
		return q, nil
	case !tq && strings.EqualFold(tok, "where"):
	default:
		return nil, fmt.Errorf("tsdb: expected WHERE, got %q", tok)
	}
	for {
		key, kq, err := tz.next()
		if err != nil {
			return nil, err
		}
		if key == "" && !kq {
			break
		}
		if !kq && strings.EqualFold(key, "and") {
			continue
		}
		if !kq && strings.EqualFold(key, "group") {
			gb, gerr := parseGroupBy(tz)
			if gerr != nil {
				return nil, gerr
			}
			q.GroupBy = gb
			if len(q.Aggregates) == 0 {
				return nil, fmt.Errorf("tsdb: GROUP BY time requires aggregate fields")
			}
			return q, nil
		}
		op, _, err := tz.next()
		if err != nil {
			return nil, err
		}
		val, vq, err := tz.next()
		if err != nil {
			return nil, err
		}
		if val == "" && !vq {
			return nil, fmt.Errorf("tsdb: condition on %q has no value", key)
		}
		if !kq && strings.EqualFold(key, "time") {
			ns, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil {
				return nil, fmt.Errorf("tsdb: bad time literal %q: %v", val, perr)
			}
			switch op {
			case ">", ">=":
				q.From = ns
			case "<", "<=":
				q.To = ns
			case "=":
				q.From, q.To = ns, ns
			default:
				return nil, fmt.Errorf("tsdb: unsupported time operator %q", op)
			}
			continue
		}
		if op != "=" {
			return nil, fmt.Errorf("tsdb: tag conditions support only '=', got %q", op)
		}
		q.TagFilter[key] = val
	}
	return q, nil
}

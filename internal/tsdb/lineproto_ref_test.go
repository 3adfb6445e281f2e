package tsdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The line codec as it stood before AppendLine and the scanning
// DecodeLine replaced it, kept verbatim (names prefixed ref) as the
// oracle the differential tests and FuzzDecodeLine hold the new codec
// to: byte-identical encoding, identical accept/reject, and the same
// errors.Is class on every rejection.

// refEncodeLine renders a point in the InfluxDB line protocol:
//
//	measurement[,tag=value...] field=value[,field=value...] timestamp
//
// Tag and field keys are sorted for a canonical form: for any point p
// accepted by Validate, DecodeLine(EncodeLine(p)) returns p and
// re-encoding yields byte-identical output. Backslashes, spaces, commas
// and equals signs in names are escaped with a backslash as in the real
// protocol.
func refEncodeLine(p Point) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(refEscapeLP(p.Measurement))
	tagKeys := make([]string, 0, len(p.Tags))
	for k := range p.Tags {
		tagKeys = append(tagKeys, k)
	}
	sort.Strings(tagKeys)
	for _, k := range tagKeys {
		b.WriteByte(',')
		b.WriteString(refEscapeLP(k))
		b.WriteByte('=')
		b.WriteString(refEscapeLP(p.Tags[k]))
	}
	b.WriteByte(' ')
	fieldKeys := make([]string, 0, len(p.Fields))
	for k := range p.Fields {
		fieldKeys = append(fieldKeys, k)
	}
	sort.Strings(fieldKeys)
	for i, k := range fieldKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(refEscapeLP(k))
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(p.Fields[k], 'g', -1, 64))
	}
	fmt.Fprintf(&b, " %d", p.Time)
	return b.String(), nil
}

// refDecodeLine parses one line-protocol line.
func refDecodeLine(line string) (Point, error) {
	parts := refSplitUnescaped(line, ' ')
	if len(parts) != 3 {
		return Point{}, fmt.Errorf("tsdb: line protocol needs 3 sections, got %d in %q", len(parts), line)
	}
	p := Point{Tags: map[string]string{}, Fields: map[string]float64{}}
	// Section 1: measurement and tags.
	head := refSplitUnescaped(parts[0], ',')
	p.Measurement = refUnescapeLP(head[0])
	for _, kv := range head[1:] {
		pair := refSplitUnescaped(kv, '=')
		if len(pair) != 2 {
			return Point{}, fmt.Errorf("tsdb: bad tag %q", kv)
		}
		k, v := refUnescapeLP(pair[0]), refUnescapeLP(pair[1])
		if k == "" || v == "" {
			return Point{}, fmt.Errorf("%w: tag %q", ErrEmptyKey, kv)
		}
		if _, dup := p.Tags[k]; dup {
			return Point{}, fmt.Errorf("%w: tag %q", ErrDuplicateKey, k)
		}
		p.Tags[k] = v
	}
	// Section 2: fields.
	for _, kv := range refSplitUnescaped(parts[1], ',') {
		pair := refSplitUnescaped(kv, '=')
		if len(pair) != 2 {
			return Point{}, fmt.Errorf("tsdb: bad field %q", kv)
		}
		v, err := strconv.ParseFloat(pair[1], 64)
		if err != nil {
			return Point{}, fmt.Errorf("tsdb: bad field value %q: %v", pair[1], err)
		}
		k := refUnescapeLP(pair[0])
		if _, dup := p.Fields[k]; dup {
			return Point{}, fmt.Errorf("%w: field %q", ErrDuplicateKey, k)
		}
		p.Fields[k] = v
	}
	// Section 3: timestamp.
	ts, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return Point{}, fmt.Errorf("tsdb: bad timestamp %q: %v", parts[2], err)
	}
	p.Time = ts
	return p, p.Validate()
}

func refEscapeLP(s string) string {
	// The backslash must be escaped first (NewReplacer never rescans its
	// own output, so the ordering here is belt-and-braces documentation):
	// without it a name ending in '\' swallows the section separator on
	// decode and the line desyncs.
	r := strings.NewReplacer(`\`, `\\`, ",", `\,`, " ", `\ `, "=", `\=`)
	return r.Replace(s)
}

func refUnescapeLP(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// refSplitUnescaped splits on sep, honouring backslash escapes.
func refSplitUnescaped(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

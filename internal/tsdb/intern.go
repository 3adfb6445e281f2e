package tsdb

import (
	"encoding/binary"
	"strings"
)

// String interning for the columnar store. Every point used to carry
// its own Tags map; in the columnar layout a series owns one canonical
// tag set and points contribute only (time, field values). The interner
// deduplicates measurement names, tag keys, tag values and field names
// so a million points over a handful of series pin a handful of strings.
//
// The DB's interner is guarded by DB.data — no locking here.
type interner map[string]string

// intern returns the canonical instance of s, storing a copy on first
// use: s may be cut from a wire line or a WAL record (DecodeLine returns
// substrings), and the table must not pin that buffer.
func (in interner) intern(s string) string {
	if c, ok := in[s]; ok {
		return c
	}
	s = strings.Clone(s)
	in[s] = s
	return s
}

// appendSeriesKey appends the canonical series identity — measurement
// plus the tag set sorted by key, each part uvarint-length-prefixed so
// the key is injective (no separator collisions) — to dst.
func appendSeriesKey(dst []byte, meas string, tags []rowKV) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(meas)))
	dst = append(dst, meas...)
	for _, t := range tags {
		dst = binary.AppendUvarint(dst, uint64(len(t.key)))
		dst = append(dst, t.key...)
		dst = binary.AppendUvarint(dst, uint64(len(t.str)))
		dst = append(dst, t.str...)
	}
	return dst
}

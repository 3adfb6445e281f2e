package storage

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestBatchBodyRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{[]byte("one")},
		{[]byte("a"), []byte(""), []byte("ccc")},
		{bytes.Repeat([]byte{0xFF}, 300), []byte("x")},
	}
	for _, items := range cases {
		enc := EncodeBatchBody(items)
		if !IsBatchBody(enc) {
			t.Fatalf("encoded batch not recognised: %q", enc)
		}
		dec, err := DecodeBatchBody(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(items) {
			t.Fatalf("decoded %d items, want %d", len(dec), len(items))
		}
		for i := range items {
			if !bytes.Equal(dec[i], items[i]) {
				t.Fatalf("item %d: got %q, want %q", i, dec[i], items[i])
			}
		}
	}
	// The empty batch round-trips too (callers never emit it, but the
	// codec must not choke on it).
	if dec, err := DecodeBatchBody(EncodeBatchBody(nil)); err != nil || len(dec) != 0 {
		t.Fatalf("empty batch: %v / %d items", err, len(dec))
	}
}

// The append-style pair frames items a caller encodes straight into the
// record body: behind whatever dst already holds, with lengths of one
// and two bytes, growing dst when it has no room for them.
func TestAppendBatchItemInPlace(t *testing.T) {
	buf := AppendBatchHeader([]byte("pre"), 3)
	for _, it := range []string{"ab", strings.Repeat("x", 200), ""} {
		start := len(buf)
		buf = append(buf, it...)
		buf = AppendBatchItem(buf[:len(buf):len(buf)], start)
	}
	want := "pre\x00\xb7GC\x03\x02ab\xc8\x01" + strings.Repeat("x", 200) + "\x00"
	if string(buf) != want {
		t.Fatalf("envelope %q, want %q", buf, want)
	}
	if got := EncodeBatchBody([][]byte{[]byte("ab"), bytes.Repeat([]byte("x"), 200), nil}); string(got) != want[3:] {
		t.Fatalf("EncodeBatchBody %q, want %q", got, want[3:])
	}
}

func TestBatchBodyDiscriminator(t *testing.T) {
	// Plain record bodies — line protocol, JSON — must never read as
	// batch envelopes: the magic's leading NUL cannot appear there.
	for _, plain := range []string{"cpu v=1 2", `{"op":"insert"}`, "", "\xb7GC"} {
		if IsBatchBody([]byte(plain)) {
			t.Fatalf("plain body %q misread as batch envelope", plain)
		}
	}
}

func TestBatchBodyCorruption(t *testing.T) {
	good := EncodeBatchBody([][]byte{[]byte("aaa"), []byte("bbb")})
	cases := map[string][]byte{
		"not an envelope":  []byte("cpu v=1"),
		"truncated header": good[:4],
		"truncated item":   good[:len(good)-2],
		"trailing bytes":   append(append([]byte{}, good...), 0x01),
		"implausible count": append(append([]byte{}, batchMagic[:]...),
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, b := range cases {
		if _, err := DecodeBatchBody(b); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("%s: got %v, want ErrCorruptRecord", name, err)
		}
	}
}

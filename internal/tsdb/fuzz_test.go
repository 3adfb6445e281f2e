package tsdb

import (
	"errors"
	"testing"
)

// pointsEqual compares decoded points. Float comparison uses == (NaN
// never survives Validate, and -0 re-encodes stably).
func pointsEqual(a, b Point) bool {
	if a.Measurement != b.Measurement || a.Time != b.Time ||
		len(a.Tags) != len(b.Tags) || len(a.Fields) != len(b.Fields) {
		return false
	}
	for k, v := range a.Tags {
		if b.Tags[k] != v {
			return false
		}
	}
	for k, v := range a.Fields {
		if bv, ok := b.Fields[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// FuzzDecodeLine asserts the decoder's contract over arbitrary input:
// never panic, agree with the reference decoder (lineproto_ref_test.go)
// on accept/reject, rejection class and the decoded point, and every
// accepted line re-encodes — as the reference encoder would — to a
// canonical form that decodes back to the same point, byte-stably.
func FuzzDecodeLine(f *testing.F) {
	f.Add("cpu,host=a usage=0.5 1000")
	f.Add(`kernel_percpu_cpu_idle,tag=x _cpu0=99.5,_cpu1=98 1722000000000000000`)
	f.Add(`esc\ aped,k\,ey=v\=al f\\x=1e-9 -5`)
	f.Add("m f=1 5")
	f.Add("m f=NaN 5")
	f.Add("m f=+Inf 5")
	f.Add("m,a=b,a=c f=1 5")
	f.Add("m,=x f=1 5")
	f.Add(`trailing\`)
	f.Add("")
	f.Add("m,a=b,a=c f=1")
	f.Add("m =1,f=NaN 5")
	f.Add(`m=x,k=\  f=1\,2 5`)
	f.Fuzz(func(t *testing.T, line string) {
		p, err := decodeLikeRef(t, line)
		if err != nil {
			return // rejection is a valid outcome; panics are not
		}
		enc, err := EncodeLine(p)
		if err != nil {
			t.Fatalf("accepted line %q decoded to unencodable point %+v: %v", line, p, err)
		}
		if ref, _ := refEncodeLine(p); enc != ref {
			t.Fatalf("EncodeLine(%+v) = %q, reference %q", p, enc, ref)
		}
		p2, err := DecodeLine(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding %q of %q does not decode: %v", enc, line, err)
		}
		if !pointsEqual(p, p2) {
			t.Fatalf("round trip changed the point:\n first: %+v\nsecond: %+v\n  line: %q\n   enc: %q", p, p2, line, enc)
		}
		enc2, err := EncodeLine(p2)
		if err != nil || enc2 != enc {
			t.Fatalf("canonical form unstable: %q then %q (err %v)", enc, enc2, err)
		}
	})
}

// FuzzEncodeDecodeRoundTrip builds points from fuzzed primitives and
// asserts every point the validator accepts survives an encode/decode
// round trip unchanged — including names full of separators, escapes and
// exotic-but-finite float values.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add("cpu", "host", "a", "usage", 0.5, "idle", 99.5, int64(1000))
	f.Add("m, m", "k=", "v v", `f\`, -0.0, "g", 1e308, int64(-1))
	f.Add("μετρ", "ключ", "значение", "字段", 1.5e-300, "f2", 3.0, int64(0))
	f.Add("m", "", "", "f", 1.0, "f", 2.0, int64(5))
	f.Fuzz(func(t *testing.T, measurement, tagKey, tagVal, fieldKey string, fieldVal float64, extraKey string, extraVal float64, ts int64) {
		p := Point{
			Measurement: measurement,
			Tags:        map[string]string{},
			Fields:      map[string]float64{fieldKey: fieldVal, extraKey: extraVal},
			Time:        ts,
		}
		if tagKey != "" || tagVal != "" {
			p.Tags[tagKey] = tagVal
		}
		if err := p.Validate(); err != nil {
			// Must be one of the typed rejections, never a panic or a
			// silent mangle.
			if !errors.Is(err, ErrNonFiniteField) && !errors.Is(err, ErrEmptyKey) && !errors.Is(err, ErrDuplicateKey) &&
				measurement != "" && len(p.Fields) != 0 {
				t.Fatalf("unexpected rejection class for %+v: %v", p, err)
			}
			return
		}
		enc, err := EncodeLine(p)
		if err != nil {
			t.Fatalf("valid point %+v failed to encode: %v", p, err)
		}
		got, err := DecodeLine(enc)
		if err != nil {
			t.Fatalf("own encoding %q of %+v does not decode: %v", enc, p, err)
		}
		if !pointsEqual(p, got) {
			t.Fatalf("round trip changed the point:\n  in: %+v\n out: %+v\n enc: %q", p, got, enc)
		}
	})
}

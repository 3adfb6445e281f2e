package storage

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the WAL codec from both sides.
// As a WAL image, data must decode without panicking, the reported clean
// prefix must re-decode to exactly the same records, the recovery
// classification must be one of the three documented outcomes, and a
// clean decode must leave only zeros after the prefix. As record
// data, an append → decode round trip must be lossless, and a torn tail
// appended after the framed record must never damage it.
func FuzzWALRecord(f *testing.F) {
	// A well-formed two-record image, the same image torn mid-frame,
	// and assorted header-shaped garbage.
	img, _ := AppendRecord(nil, 1, []byte("cpu_idle,host=icl value=99"))
	img, _ = AppendRecord(img, 2, []byte(`{"op":"insert","doc":{"_id":7}}`))
	f.Add(img)
	f.Add(img[:len(img)-5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte("not a frame at all, just prose"))
	f.Add(bytes.Repeat([]byte{0}, 32))
	// The same images as an FsyncAlways log leaves them: a zero extent
	// after the records, after a torn frame, and after a zero length
	// field whose frame was written past its first sector.
	zeros := make([]byte, 64)
	f.Add(append(img[:len(img):len(img)], zeros...))
	f.Add(append(img[:len(img)-5:len(img)-5], zeros...))
	inFlight := append(img[:len(img):len(img)], zeros...)
	inFlight[len(img)+40] = 0x5a
	f.Add(inFlight)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Side 1: data is a WAL image found on disk after a crash.
		recs, cleanLen, err := DecodeAll(data)
		if cleanLen < 0 || cleanLen > len(data) {
			t.Fatalf("clean prefix %d outside [0,%d]", cleanLen, len(data))
		}
		switch {
		case err == nil:
			if !bytes.Equal(data[cleanLen:], make([]byte, len(data)-cleanLen)) {
				t.Fatalf("nil error but nonzero bytes after the %d-byte clean prefix", cleanLen)
			}
		case errors.Is(err, ErrTornRecord), errors.Is(err, ErrCorruptRecord):
			// The two documented recovery outcomes.
		default:
			t.Fatalf("undocumented recovery error: %v", err)
		}
		again, againLen, err := DecodeAll(data[:cleanLen])
		if err != nil {
			t.Fatalf("clean prefix did not re-decode cleanly: %v", err)
		}
		if againLen != cleanLen || len(again) != len(recs) {
			t.Fatalf("re-decode drifted: %d bytes / %d records, want %d / %d",
				againLen, len(again), cleanLen, len(recs))
		}
		for i := range recs {
			if again[i].Seq != recs[i].Seq || !bytes.Equal(again[i].Data, recs[i].Data) {
				t.Fatalf("record %d changed on re-decode", i)
			}
		}

		// Side 2: data is a payload to log. Framing it and decoding the
		// frame must hand back the identical bytes, and garbage appended
		// after the frame (a torn next record) must leave it intact.
		framed, err := AppendRecord(nil, 42, data)
		if err != nil {
			t.Fatalf("append %d-byte record: %v", len(data), err)
		}
		rec, n, err := DecodeRecord(framed)
		if err != nil {
			t.Fatalf("decode framed record: %v", err)
		}
		if n != len(framed) || rec.Seq != 42 || !bytes.Equal(rec.Data, data) {
			t.Fatalf("round trip lost data: consumed %d/%d, seq %d", n, len(framed), rec.Seq)
		}
		torn := append(framed[:len(framed):len(framed)], 0x01, 0x00, 0x00)
		got, _, err := DecodeAll(torn)
		if len(got) != 1 || !bytes.Equal(got[0].Data, data) {
			t.Fatalf("torn tail damaged the preceding record (recovered %d records, err %v)", len(got), err)
		}
	})
}

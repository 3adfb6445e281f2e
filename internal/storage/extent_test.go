package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// wantRecords fails unless the log at path holds exactly want, in order.
func wantRecords(t *testing.T, path string, want ...string) {
	t.Helper()
	recs, _, err := DecodeAll(cleanPrefix(t, path))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, string(r.Data))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("log holds %q, want %q", got, want)
	}
}

// TestReopenKeepsTheExtent: under always, the first append writes its
// frame and zeros out to 64 KiB; later appends that fit leave the file's
// length alone; Close and a reopen keep the extent, and the next append
// lands at the log's logical end.
func TestReopenKeepsTheExtent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, "a")
	extent := fileLen(t, path)
	if extent != minExtentStep {
		t.Fatalf("file %d bytes after the first append, want 64 KiB", extent)
	}
	mustAppend(t, w, "b")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fileLen(t, path); n != extent {
		t.Fatalf("file %d bytes after an append that fits and Close, want %d", n, extent)
	}
	w2, recs, info := openWAL(t, path, FsyncAlways)
	if len(recs) != 2 || info.Torn || info.TornBytes != 0 {
		t.Fatalf("reopen recovered %d records, info %+v; want 2, clean", len(recs), info)
	}
	if seq := mustAppend(t, w2, "c"); seq != 3 {
		t.Fatalf("seq %d after reopen, want 3", seq)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fileLen(t, path); n != extent {
		t.Fatalf("file %d bytes after reopen and append, want the kept extent %d", n, extent)
	}
	wantRecords(t, path, "a", "b", "c")
}

// TestExtentDoubles: the extent ends on a grid whose spacing doubles
// from 64 KiB up to 1 MiB, so the file's length follows from the log's
// length alone: the same records appended in another order, in other
// batches, leave the same file length. Compact starts the grid again.
func TestExtentDoubles(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := s.WALPath()
	frame := bytes.Repeat([]byte{'x'}, 48<<10)
	var lens []int64
	for prev := int64(0); len(lens) < 6; {
		if _, err := s.Append(frame); err != nil {
			t.Fatal(err)
		}
		if n := fileLen(t, path); n != prev {
			lens = append(lens, n)
			prev = n
		}
	}
	const k = 1 << 10
	if want := []int64{64 * k, 192 * k, 448 * k, 960 * k, 1984 * k, 3008 * k}; fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("file lengths after each extension %v, want %v", lens, want)
	}
	if err := s.Compact([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	if n := fileLen(t, path); n != 0 {
		t.Fatalf("wal.log %d bytes after Compact, want 0", n)
	}
	if _, err := s.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if n := fileLen(t, path); n != minExtentStep {
		t.Fatalf("wal.log %d bytes after Compact and one append, want 64 KiB", n)
	}

	// Two orders of the same records end at the same file length.
	sizes := []int{100 << 10, 3 << 10, 60 << 10, 200 << 10, 7 << 10, 30 << 10}
	var ends []int64
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 3, 1, 4, 0, 2}} {
		p := filepath.Join(t.TempDir(), "wal.log")
		w, _, _ := openWAL(t, p, FsyncAlways)
		for _, i := range order {
			mustAppend(t, w, string(bytes.Repeat([]byte{'y'}, sizes[i])))
		}
		w.Close()
		ends = append(ends, fileLen(t, p))
	}
	if ends[0] != ends[1] {
		t.Fatalf("the same records in two orders left files of %d and %d bytes", ends[0], ends[1])
	}
}

// TestAppendOnlyPoliciesHaveNoZeroTail: interval and never write no
// extent, and a log an always writer left is cut to its logical end when
// reopened under either.
func TestAppendOnlyPoliciesHaveNoZeroTail(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncInterval, FsyncNever} {
		t.Run(string(pol), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, _, _ := openWAL(t, path, pol)
			mustAppend(t, w, "a")
			mustAppend(t, w, "b")
			if n := fileLen(t, path); n != w.Size() {
				t.Fatalf("file %d bytes, log %d", n, w.Size())
			}
			w.Close()

			w, _, _ = openWAL(t, path, FsyncAlways)
			mustAppend(t, w, "c")
			w.Close()
			w, recs, info := openWAL(t, path, pol)
			defer w.Close()
			if len(recs) != 3 || info.Torn {
				t.Fatalf("recovered %d records, info %+v; want 3, clean", len(recs), info)
			}
			if n := fileLen(t, path); n != w.Size() {
				t.Fatalf("reopened under %s: file %d bytes, log %d", pol, n, w.Size())
			}
		})
	}
}

// TestTornInFlightAppend: an append into the extent that reached the
// disk past its first sector but not its header leaves a zero length
// field with nonzero bytes after it. That is a torn tail: the records
// before it survive, the residue is cut, the sequence carries on.
func TestTornInFlightAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, "a")
	mustAppend(t, w, "b")
	end := w.Size()
	w.Close()
	frame, err := AppendRecord(nil, 3, bytes.Repeat([]byte{0x7e}, 1500))
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(img[end+512:], frame[512:]) // every sector but the header's
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, info := openWAL(t, path, FsyncAlways)
	if len(recs) != 2 || !info.Torn || info.TornBytes != int64(len(img))-end {
		t.Fatalf("recovered %d records, info %+v; want 2 and a %d-byte torn tail", len(recs), info, int64(len(img))-end)
	}
	if n := fileLen(t, path); n != end {
		t.Fatalf("file %d bytes after recovery, want the log's %d", n, end)
	}
	if seq := mustAppend(t, w, "c"); seq != 3 {
		t.Fatalf("seq %d after recovery, want 3", seq)
	}
	w.Close()
	wantRecords(t, path, "a", "b", "c")
}

// TestFrameEndingInZeros: a record whose data ends in zeros keeps them;
// the log's end is where its frames say, not where the zeros start.
func TestFrameEndingInZeros(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	data := append([]byte("value"), make([]byte, 100)...)
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, string(data))
	w.Close()
	w, recs, info := openWAL(t, path, FsyncAlways)
	if len(recs) != 1 || info.Torn || !bytes.Equal(recs[0].Data, data) {
		t.Fatalf("recovered %d records, info %+v; want the one record with its zeros", len(recs), info)
	}
	mustAppend(t, w, "next")
	w.Close()
	wantRecords(t, path, string(data), "next")
}

// TestCrashDuringExtendingAppend: an append that does not fit writes
// its frame, then the zeros of the new extent, then fsyncs. A crash
// after any prefix of those writes recovers the log before the append,
// or the log with it once the frame is whole, and appends again.
func TestCrashDuringExtendingAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, "a")
	start := w.Size()
	w.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, _, _ = openWAL(t, path, FsyncAlways)
	big := string(bytes.Repeat([]byte{0x3c}, 70<<10)) // past the 64 KiB extent
	mustAppend(t, w, big)
	w.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frameEnd := w.Size()
	if int64(len(before)) >= frameEnd {
		t.Fatalf("the append fit the %d-byte extent; it must extend it", len(before))
	}

	// A crash image: the first n bytes of the finished file over what
	// was there before, the file as long as the longer of the two.
	image := func(n int64) []byte {
		img := append([]byte(nil), after[:n]...)
		if n < int64(len(before)) {
			img = append(img, before[n:]...)
		}
		return img
	}
	cuts := []int64{start, start + 1, start + 8, start + 512, int64(len(before)), frameEnd - 1, // frame
		frameEnd, frameEnd + 4096, int64(len(after))} // zeros
	for _, n := range cuts {
		crashed := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(crashed, image(n), 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, info := openWAL(t, crashed, FsyncAlways)
		want, wantTorn := []string{"a"}, n > start && n < frameEnd
		if n >= frameEnd {
			want = []string{"a", big}
		}
		if len(recs) != len(want) || info.Torn != wantTorn {
			t.Fatalf("crash after %d of %d bytes: %d records, info %+v; want %d, torn %v",
				n, len(after), len(recs), info, len(want), wantTorn)
		}
		mustAppend(t, w, "next")
		w.Close()
		wantRecords(t, crashed, append(want, "next")...)
	}
}

// TestFailedAppendLeavesTheEnd: a failed write does not move the log's
// end, so the next append takes its place and its sequence number, and
// what a short write left past the end is overwritten with zeros
// (always) or cut (the append-only policies).
func TestFailedAppendLeavesTheEnd(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(string(pol), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, _, _ := openWAL(t, path, pol)
			mustAppend(t, w, "a")
			end := w.Size()

			rw := w.f
			ro, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			w.f = ro
			if _, err := w.Append([]byte("refused")); err == nil {
				t.Fatal("an append through a read-only handle succeeded")
			}
			w.f = rw
			ro.Close()
			if w.Size() != end {
				t.Fatalf("a failed append moved the end %d -> %d", end, w.Size())
			}

			// A short write of a long frame leaves its first bytes.
			long, err := AppendRecord(nil, 2, bytes.Repeat([]byte{0xee}, 300))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rw.WriteAt(long[:200], end); err != nil {
				t.Fatal(err)
			}
			w.dirty = end + 200
			if seq := mustAppend(t, w, "b"); seq != 2 {
				t.Fatalf("seq %d after the failed appends, want 2", seq)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			wantRecords(t, path, "a", "b")
			if pol != FsyncAlways {
				if n, log := fileLen(t, path), len(cleanPrefix(t, path)); n != int64(log) {
					t.Fatalf("file %d bytes, log %d: the residue was not cut", n, log)
				}
			}
		})
	}
}

package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkWALAppend times an always append of a 7 KB and a 20 KB
// record, in µs per append. Most fit the zero extent and pay one
// fdatasync; an extension pays a full fsync.
func BenchmarkWALAppend(b *testing.B) {
	for _, size := range []int{7_000, 20_000} {
		b.Run(fmt.Sprintf("%dKB", size/1000), func(b *testing.B) {
			w, _, _, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"), FsyncAlways)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			data := bytes.Repeat([]byte{'x'}, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
		})
	}
}

package storage

import (
	"encoding/binary"
	"fmt"
)

// Batch records: group commit packs a whole write batch into ONE framed
// WAL record, so the batch costs a single fsync and recovery is atomic
// by construction — a crash mid-append leaves one torn frame, which the
// recovering reader truncates, discarding the whole batch rather than a
// prefix of it. The envelope below frames the batch's sub-bodies inside
// the record data; the caller's per-item codec is untouched. Its callers
// are tsdb (line-protocol batches) and the telemetry spill journal (its
// snapshot of spilled lines); docdb logs one JSON op per record and
// never uses the envelope.
//
// Layout, all varints unsigned LEB128 (encoding/binary):
//
//	[4B magic][uvarint count][uvarint len, len bytes] x count
//
// The magic starts with a NUL so no line-protocol or JSON record body
// can collide with it (both stores reject empty keys/measurements, and
// neither codec emits a leading NUL); IsBatchBody is therefore a safe
// discriminator over mixed old/new WALs — single-item records keep
// their plain bodies and replay exactly as before.

// batchMagic tags a batch-envelope record body.
var batchMagic = [4]byte{0x00, 0xB7, 'G', 'C'}

// AppendBatchHeader opens a batch envelope of count items on dst. Each
// item follows through AppendBatchItem, so a caller can encode its items
// straight into the record body instead of gathering them first.
func AppendBatchHeader(dst []byte, count int) []byte {
	dst = append(dst, batchMagic[:]...)
	return binary.AppendUvarint(dst, uint64(count))
}

// AppendBatchItem closes one item of the envelope: the caller has
// appended the item's bytes to dst from offset start, and they move
// right by the width of their uvarint length, which lands at start.
func AppendBatchItem(dst []byte, start int) []byte {
	var l [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(l[:], uint64(len(dst)-start))
	dst = append(dst, l[:n]...)
	copy(dst[start+n:], dst[start:])
	copy(dst[start:], l[:n])
	return dst
}

// EncodeBatchBody frames the given sub-bodies into one record body for
// a group-committed WAL append.
func EncodeBatchBody(items [][]byte) []byte {
	buf := AppendBatchHeader(nil, len(items))
	for _, it := range items {
		start := len(buf)
		buf = AppendBatchItem(append(buf, it...), start)
	}
	return buf
}

// IsBatchBody reports whether a recovered record body is a batch
// envelope (EncodeBatchBody output) rather than a plain single-item
// body.
func IsBatchBody(b []byte) bool {
	return len(b) >= len(batchMagic) && [4]byte(b[:4]) == batchMagic
}

// DecodeBatchBody splits a batch envelope back into its sub-bodies. The
// returned slices alias b. The envelope lives inside a CRC-framed WAL
// record, so corruption here means the record codec has a bug, not that
// the disk lied — it is reported as ErrCorruptRecord all the same.
func DecodeBatchBody(b []byte) ([][]byte, error) {
	if !IsBatchBody(b) {
		return nil, fmt.Errorf("%w: not a batch envelope", ErrCorruptRecord)
	}
	rest := b[len(batchMagic):]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad batch count", ErrCorruptRecord)
	}
	rest = rest[n:]
	if count > uint64(len(rest))+1 {
		// Each item costs at least one length byte; an implausible count
		// would otherwise allocate unboundedly.
		return nil, fmt.Errorf("%w: batch claims %d items in %d bytes", ErrCorruptRecord, count, len(rest))
	}
	items := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		sz, n := binary.Uvarint(rest)
		if n <= 0 || sz > uint64(len(rest[n:])) {
			return nil, fmt.Errorf("%w: batch item %d overruns the envelope", ErrCorruptRecord, i)
		}
		items = append(items, rest[n:n+int(sz)])
		rest = rest[n+int(sz):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorruptRecord, len(rest))
	}
	return items, nil
}

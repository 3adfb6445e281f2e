// Package storage is the durability substrate for the embedded database
// servers: a length-prefixed, CRC32C-framed write-ahead log with a
// configurable fsync policy, plus atomic snapshot-and-compact. The tsdb
// and docdb stores log every accepted mutation through it and replay
// snapshot+WAL on open, so a killed server restarted from its data
// directory recovers every acknowledged write (fsync=always) or a clean
// prefix of them (weaker policies) — never a torn record.
//
// The paper's pipeline (probe → KB → Grafana) treats the monitoring
// record itself as the product; the HPC-operations literature stresses
// that gaps in the monitoring archive are operational incidents. This
// package is what keeps a node failure from silently discarding the
// archive the rest of the stack works so hard to deliver.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire framing, little-endian:
//
//	[4B payload length n][4B CRC32C of payload][payload = 8B seq + data]
//
// The CRC covers the payload only (seq + data); the length prefix is
// validated by range. A record is torn when the file ends before the
// frame does — the signature of a crash mid-append — and corrupt when
// the full frame is present but the CRC disagrees. No frame has a zero
// length, so a zero length field is where writing stopped: an
// FsyncAlways log keeps zeros past its end (see WAL).
const (
	// frameHeaderSize is the fixed prefix: length + CRC.
	frameHeaderSize = 8
	// seqSize is the sequence number leading every payload.
	seqSize = 8
	// MaxRecord bounds one record's data, keeping a corrupted length
	// prefix from allocating gigabytes on recovery.
	MaxRecord = 16 << 20
)

// Typed recovery errors. ErrTornRecord marks an incomplete frame at the
// tail — the expected residue of a crash mid-append, silently truncated
// by the recovering reader. ErrCorruptRecord marks a full frame whose
// CRC disagrees; mid-file that is data corruption, not a torn write, and
// recovery refuses to guess past it.
var (
	ErrTornRecord    = errors.New("storage: torn record")
	ErrCorruptRecord = errors.New("storage: corrupt record")
)

// Record is one recovered WAL entry: the sequence number the appender
// assigned and the opaque data the caller logged.
type Record struct {
	Seq  uint64
	Data []byte
}

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64, and the one real WAL implementations use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord frames one record onto buf and returns the extended
// buffer, mirroring the append-style codecs in encoding/binary.
func AppendRecord(buf []byte, seq uint64, data []byte) ([]byte, error) {
	if len(data) > MaxRecord {
		return buf, fmt.Errorf("storage: record data %d bytes exceeds MaxRecord %d", len(data), MaxRecord)
	}
	// The frame goes into buf whole and its CRC is taken there: a header
	// of its own would escape through crc32.Update, an allocation a record.
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seqSize+len(data)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // the CRC, below
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, data...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+frameHeaderSize:], castagnoli))
	return buf, nil
}

// DecodeRecord decodes the first record in b, returning it and the
// number of bytes consumed. An incomplete frame returns ErrTornRecord; a
// complete frame with a CRC mismatch or an out-of-range length returns
// ErrCorruptRecord. The returned Data aliases b.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: %d-byte tail is shorter than a frame header", ErrTornRecord, len(b))
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if payloadLen < seqSize || payloadLen > MaxRecord+seqSize {
		return Record{}, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorruptRecord, payloadLen)
	}
	if len(b) < frameHeaderSize+payloadLen {
		return Record{}, 0, fmt.Errorf("%w: frame wants %d payload bytes, file has %d",
			ErrTornRecord, payloadLen, len(b)-frameHeaderSize)
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	payload := b[frameHeaderSize : frameHeaderSize+payloadLen]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return Record{}, 0, fmt.Errorf("%w: CRC %08x != stored %08x", ErrCorruptRecord, got, want)
	}
	return Record{
		Seq:  binary.LittleEndian.Uint64(payload[0:seqSize]),
		Data: payload[seqSize:],
	}, frameHeaderSize + payloadLen, nil
}

// DecodeAll walks a WAL image record by record. It returns the decoded
// records, the byte offset of the clean prefix, and how the walk ended:
//
//   - nil error: the whole image decoded, or the records end at a zero
//     length field and only zeros follow (an FsyncAlways log's extent):
//     b[cleanLen:] is all zero.
//   - ErrTornRecord: the tail is an incomplete frame — a crash
//     mid-append; the records before cleanLen are intact. A zero length
//     field with nonzero bytes after it is the same: the append in
//     flight wrote later sectors of its frame but not the first.
//   - ErrCorruptRecord at the tail (only zeros, or nothing, follow the
//     bad frame): reported as ErrTornRecord too, since a partially
//     flushed final sector is indistinguishable from a torn append.
//   - ErrCorruptRecord mid-file (other bytes follow the bad frame):
//     returned as-is. That is bit rot, not a crash artifact, and
//     truncating would silently discard good acknowledged records.
func DecodeAll(b []byte) (recs []Record, cleanLen int, err error) {
	off := 0
	for off < len(b) {
		if allZero(b[off:min(off+4, len(b))]) {
			if !allZero(b[off:]) {
				return recs, off, fmt.Errorf("%w: zero frame length at offset %d with nonzero bytes after it", ErrTornRecord, off)
			}
			return recs, off, nil
		}
		rec, n, derr := DecodeRecord(b[off:])
		if derr == nil {
			recs = append(recs, rec)
			off += n
			continue
		}
		if errors.Is(derr, ErrCorruptRecord) && !tailFrame(b[off:]) {
			return recs, off, fmt.Errorf("%w at offset %d", derr, off)
		}
		if errors.Is(derr, ErrCorruptRecord) {
			derr = fmt.Errorf("%w: corrupt final frame at offset %d: %v", ErrTornRecord, off, derr)
		}
		return recs, off, derr
	}
	return recs, off, nil
}

// tailFrame reports whether the bad frame starting at b is the last
// frame in the image: whether nothing but zeros follows its declared
// extent, leaving no bytes that could belong to a later record.
func tailFrame(b []byte) bool {
	// A garbage length makes the frame's extent unknowable: only the
	// header region counts as the frame.
	end := frameHeaderSize + seqSize
	if len(b) >= frameHeaderSize {
		if payloadLen := int(binary.LittleEndian.Uint32(b[0:4])); payloadLen >= seqSize && payloadLen <= MaxRecord+seqSize {
			end = frameHeaderSize + payloadLen
		}
	}
	return len(b) <= end || allZero(b[end:])
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

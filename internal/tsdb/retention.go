package tsdb

// EnforceRetention drops points older than now-Duration. Returns the
// number of points dropped. Sealed blocks wholly before the cutoff are
// dropped in O(1) each — no decompression, just unlinking — and at most
// one straddling block per series is rewritten.
func (db *DB) EnforceRetention(now int64) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.data.Lock()
	if db.retention.Duration <= 0 {
		db.data.Unlock()
		return 0
	}
	cutoff := now - db.retention.Duration
	dropped := 0
	for name, m := range db.measurements {
		kept := m.series[:0]
		for _, s := range m.series {
			dropped += db.retainSeries(s, cutoff)
			if len(s.blocks) == 0 && s.headRows() == 0 {
				delete(m.byKey, s.key)
				continue
			}
			kept = append(kept, s)
		}
		for j := len(kept); j < len(m.series); j++ {
			m.series[j] = nil
		}
		m.series = kept
		if len(m.series) == 0 {
			delete(db.measurements, name)
		}
	}
	db.publishStorageGauges()
	db.data.Unlock()
	if dropped > 0 {
		db.qcache.invalidateAll()
	}
	return dropped
}

// retainSeries applies a retention cutoff to one series: whole sealed
// blocks before the cutoff unlink in O(1), the (at most one) straddling
// block is rewritten, and a head holding expired rows is rebuilt from
// its surviving suffix. Returns rows dropped. Callers hold db.data
// exclusively.
func (db *DB) retainSeries(s *memSeries, cutoff int64) int {
	st := &db.stats
	dropped := 0
	kept := s.blocks[:0]
	for _, b := range s.blocks {
		switch {
		case b.maxT < cutoff: // wholly expired: O(1) drop
			dropped += b.rows
			st.sealedBytes -= int64(len(b.blob))
			st.sealedRows -= int64(b.rows)
			st.sealedValues -= int64(b.values)
			st.blocks--
		case b.minT >= cutoff: // wholly live
			kept = append(kept, b)
		default: // straddles: rewrite the surviving suffix
			nb, removed, err := shrinkBlock(b, cutoff)
			if err != nil || removed == 0 {
				// Decode failure would mean an engine bug; keep the data.
				kept = append(kept, b)
				continue
			}
			dropped += removed
			st.sealedBytes += int64(len(nb.blob)) - int64(len(b.blob))
			st.sealedRows += int64(nb.rows) - int64(b.rows)
			st.sealedValues += int64(nb.values) - int64(b.values)
			kept = append(kept, nb)
		}
	}
	for i := len(kept); i < len(s.blocks); i++ {
		s.blocks[i] = nil
	}
	s.blocks = kept
	if h := s.head(); s.open.rows > 0 && h.minT < cutoff {
		times, cols, n, err := h.since(s.open.fieldNames(), cutoff)
		if err != nil {
			return dropped // an engine bug; keep the data
		}
		pre := s.headBytes()
		s.resetHead()
		s.open.appendRows(times, cols)
		dropped += n
		st.headRows -= int64(n)
		st.headBytes += s.headBytes() - pre
	}
	return dropped
}

// shrinkBlock re-encodes the rows of b at or after cutoff into a new
// block, returning it and the number of rows removed. The caller has
// established minT < cutoff <= maxT, so the suffix is never empty.
func shrinkBlock(b *block, cutoff int64) (*block, int, error) {
	names := b.fieldNames()
	times, cols, n, err := unit{b: b}.since(names, cutoff)
	if err != nil || n == 0 {
		return b, 0, err
	}
	nb, err := encodeBlock(times, names, cols)
	return nb, n, err
}

package resilience

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
)

// Batched op retry semantics. A retried write frame would re-apply
// every point in it, so a tsdb batch carries an idempotency token minted
// once per logical batch and sent on every retry of it; the tsdb server
// remembers the tokens it has applied in a bounded table and acknowledges,
// without re-applying, a token it has already committed — tsdb batches
// are exactly-once under retry.

// tokenPrefix makes tokens unique across processes (crypto/rand nonce);
// the atomic counter makes them unique within one.
var (
	tokenOnce   sync.Once
	tokenPrefix string
	tokenSeq    atomic.Uint64
)

// NextOpToken mints a process-unique idempotency token for one logical
// op (one batch). Mint it ONCE before entering DoContext and reuse it
// across every retry attempt — minting inside the attempt closure would
// defeat the dedup entirely.
func NextOpToken() string {
	tokenOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing means the platform is broken; tokens
			// degrade to per-process-counter uniqueness only.
			copy(b[:], "pmovetok")
		}
		tokenPrefix = hex.EncodeToString(b[:])
	})
	return fmt.Sprintf("%s-%x", tokenPrefix, tokenSeq.Add(1))
}

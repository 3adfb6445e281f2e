package resilience

import (
	"sync"
	"testing"
)

// TestNextOpTokenUnique: tokens are unique under concurrency — the
// whole idempotency scheme rests on two logical batches never sharing
// one.
func TestNextOpTokenUnique(t *testing.T) {
	const workers, per = 8, 200
	var mu sync.Mutex
	seen := make(map[string]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, NextOpToken())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, tok := range local {
				if seen[tok] {
					t.Errorf("duplicate token %q", tok)
					return
				}
				seen[tok] = true
			}
		}()
	}
	wg.Wait()
}

package testkit

import "testing"

// TestDurableScenarioBatchedRecovery runs the crash-recovery chaos
// scenario with batched shipment: group-committed batches must recover
// whole-or-none across kills, so with fsync=always the durable
// recovery oracle (server holds exactly the acknowledged points) and
// the dedup oracle both hold.
func TestDurableScenarioBatchedRecovery(t *testing.T) {
	for _, seed := range []uint64{11, 0xfee1} {
		sc := DurableFromSeed(seed)
		sc.Fsync = "always"
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("seed %#x: oracle violated (%s): %v", seed, ReproLine(seed), err)
		}
	}
}

// Package resilience is the fault substrate shared by every TCP path in
// the repo. The paper's Table III studies what happens when the shipment
// path degrades *by design* (unbuffered drops, batched zeros); this
// package handles the degradations the paper never intends — stalled
// servers, dropped links, flapping listeners — so the monitoring plane
// survives the faults it observes (Ciorba's requirement for HPC
// monitoring). It has three parts:
//
//   - a deterministic, seedable fault injector (Proxy) that
//     interposes latency, slow reads, mid-stream resets, partitions and
//     flappy accepts in front of the tsdb server without touching its
//     logic;
//   - a shared dial/retry kit (Transport): per-op read/write deadlines,
//     exponential backoff with seeded jitter, automatic reconnect with a
//     connection-state resync probe, and a circuit breaker with half-open
//     probing;
//   - the Policy knobs the tsdb client and cmd/pmove expose.
package resilience

import "time"

// Policy bundles the resilience knobs of a network client.
type Policy struct {
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// ReadTimeout / WriteTimeout are per-operation I/O deadlines applied
	// to every Read/Write on the wire. Zero disables the deadline.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxRetries is how many times an operation is retried after its
	// first attempt fails with an I/O error. Protocol-level rejections
	// (see Permanent) are never retried.
	MaxRetries int
	// Backoff paces the retries.
	Backoff Backoff
	// Breaker configures the circuit breaker; Threshold <= 0 disables it.
	Breaker BreakerConfig
	// Seed drives the deterministic retry jitter.
	Seed uint64
}

// DefaultPolicy returns production-shaped defaults: a few fast retries
// with jittered exponential backoff, multi-second deadlines, and a
// breaker that opens after five consecutive failures.
func DefaultPolicy() Policy {
	return Policy{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
		MaxRetries:   3,
		Backoff:      Backoff{Base: 25 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.2},
		Breaker:      BreakerConfig{Threshold: 5, Cooldown: 500 * time.Millisecond},
		Seed:         1,
	}
}

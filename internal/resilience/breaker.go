package resilience

import (
	"errors"
	"time"
)

// ErrCircuitOpen is returned (wrapped) when the breaker fast-fails an
// operation without touching the network.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// BreakerState is the circuit breaker's tri-state.
type BreakerState string

// Breaker states.
const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerConfig sizes the circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the circuit;
	// <= 0 disables the breaker entirely.
	Threshold int
	// Cooldown is how long the circuit stays open before one half-open
	// probe is allowed through.
	Cooldown time.Duration
}

// Breaker is a consecutive-failure circuit breaker. While open it
// fast-fails callers instead of burning deadlines against a dead server;
// after Cooldown one probe (the client's PING resync) is let through, and
// its outcome closes or re-opens the circuit. Callers must serialise
// access (tsdb.Client holds its own mutex).
type Breaker struct {
	cfg      BreakerConfig
	state    BreakerState
	fails    int
	openedAt time.Time
	opens    uint64
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg, state: BreakerClosed}
}

// State reports the current state.
func (b *Breaker) State() BreakerState { return b.state }

// Opens counts how many times the circuit has opened.
func (b *Breaker) Opens() uint64 { return b.opens }

// Allow reports whether an attempt may proceed now. An open circuit past
// its cooldown transitions to half-open and admits exactly one probe.
func (b *Breaker) Allow(now time.Time) bool {
	if b.cfg.Threshold <= 0 {
		return true
	}
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// Success records a completed operation, closing the circuit.
func (b *Breaker) Success() {
	b.fails = 0
	b.state = BreakerClosed
}

// Failure records a failed operation; it opens the circuit when the
// threshold is reached or a half-open probe fails.
func (b *Breaker) Failure(now time.Time) {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.cfg.Threshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.openedAt = now
	}
}

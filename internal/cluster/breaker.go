package cluster

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker state machine position.
type BreakerState int32

const (
	// BreakerClosed passes requests and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects requests until OpenFor has elapsed.
	BreakerOpen
	// BreakerHalfOpen admits one probe request at a time; a probe
	// success closes the breaker, a failure reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer for logs and stats payloads.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes one peer's circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// closed breaker open (default 5).
	FailureThreshold int
	// OpenFor is how long an open breaker rejects before admitting a
	// half-open probe (default 2s).
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	return c
}

// Breaker is one peer's circuit breaker: closed while the peer behaves,
// open after FailureThreshold consecutive failures, half-open after
// OpenFor to let one probe at a time test recovery. Acquire/Success/
// Failure are safe for concurrent use; every Acquire that returns true
// must be paired with exactly one Success or Failure.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig
	now func() time.Time // injectable clock for deterministic tests

	state      BreakerState
	fails      int // consecutive failures while closed
	openedAt   time.Time
	probe      bool // a half-open probe is in flight
	trips      uint64
	transition func(BreakerState) // observer hook, called with mu held
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// onTransition registers an observer invoked on every state change (used
// to mirror the state onto an obs gauge). Must be set before concurrent
// use.
func (b *Breaker) onTransition(fn func(BreakerState)) { b.transition = fn }

// setState transitions with the observer hook; called with mu held.
func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if b.transition != nil {
		b.transition(s)
	}
}

// Acquire reports whether a request may be sent to the peer right now.
// An open breaker whose OpenFor has elapsed transitions to half-open and
// admits the call as a probe. A true return must be paired with Success
// or Failure.
func (b *Breaker) Acquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probe = true
		return true
	case BreakerHalfOpen:
		if b.probe {
			return false
		}
		b.probe = true
		return true
	}
	return false
}

// Success records a successful request.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.probe = false
		b.setState(BreakerClosed)
		b.fails = 0
	}
}

// Failure records a failed request, tripping or reopening as configured.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probe = false
		b.trip()
	}
}

// Cancel releases an acquired slot without a verdict — used when a
// request leg is abandoned (hedge loser, caller gave up) and the peer's
// behavior was never observed. A half-open probe slot is returned; a
// closed breaker's consecutive-failure count is untouched.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probe = false
	}
}

// trip opens the breaker; called with mu held.
func (b *Breaker) trip() {
	b.setState(BreakerOpen)
	b.openedAt = b.now()
	b.fails = 0
	b.trips++
}

// State returns the current state without consuming a probe slot. An open
// breaker past its OpenFor still reports open — only Acquire transitions,
// so the state observed here is what a request would have seen.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

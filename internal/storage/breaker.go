package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrUnavailable is returned by a tripped Breaker without touching the
// backend. It is deliberately NOT transient-classed: the breaker exists to
// shed load, and a retry loop hammering an open breaker would defeat it.
// Callers wait out the cooldown (or serve from cache above the breaker).
var ErrUnavailable = errors.New("storage: backend unavailable (circuit open)")

// BreakerOptions configures a Breaker. The zero value selects the defaults
// noted on each field.
type BreakerOptions struct {
	// Threshold is how many consecutive backend failures trip the circuit
	// (default 5).
	Threshold int
	// Cooldown is how long the circuit stays open after the first trip
	// (default 250ms); each consecutive failed probe doubles it up to
	// MaxCooldown (default 10×Cooldown).
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker wraps a BlockStore with a circuit breaker: sustained backend
// failure trips it open, after which operations fail fast with
// ErrUnavailable instead of queueing on a dead device. After the cooldown
// the breaker half-opens and lets a single probe operation through —
// success closes the circuit, failure reopens it with doubled cooldown.
//
// Corruption-classed errors never count toward tripping: a rotten block is
// a data problem on an otherwise healthy device, handled by quarantine,
// and must not take the whole backend offline. In the serving stack the
// breaker sits below the block cache, so cache hits keep being served
// while the circuit is open (cache-only serving).
type Breaker struct {
	inner BlockStore
	opts  BreakerOptions

	mu       sync.Mutex
	state    int
	fails    int           // consecutive failures while closed
	cooldown time.Duration // current open duration (backoff-doubled)
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    int64
	rejected int64
}

// NewBreaker wraps inner with a circuit breaker.
func NewBreaker(inner BlockStore, opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 250 * time.Millisecond
	}
	if opts.MaxCooldown <= 0 {
		opts.MaxCooldown = 10 * opts.Cooldown
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Breaker{inner: inner, opts: opts, cooldown: opts.Cooldown}
}

// State returns "closed", "open", or "half-open" for health reporting.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Trips returns how many times the circuit has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Rejected returns how many operations were refused while open.
func (b *Breaker) Rejected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// allow decides whether an operation may proceed; probe reports whether it
// is the half-open trial whose outcome settles the circuit.
func (b *Breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.opts.Now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true, true
		}
		b.rejected++
		return false, false
	default: // half-open
		if !b.probing {
			b.probing = true
			return true, true
		}
		b.rejected++
		return false, false
	}
}

// record settles an operation's outcome. Corruption does not count as a
// backend failure; neither do argument errors surfaced before any device
// I/O could fail (they are deterministic and say nothing about health).
func (b *Breaker) record(err error, probe bool) {
	backendFailure := err != nil && !IsCorruption(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if backendFailure {
			// Failed probe: reopen with doubled cooldown.
			b.state = breakerOpen
			b.openedAt = b.opts.Now()
			if b.cooldown *= 2; b.cooldown > b.opts.MaxCooldown {
				b.cooldown = b.opts.MaxCooldown
			}
			b.trips++
			return
		}
		b.state = breakerClosed
		b.fails = 0
		b.cooldown = b.opts.Cooldown
		return
	}
	if b.state != breakerClosed {
		return
	}
	if !backendFailure {
		b.fails = 0
		return
	}
	if b.fails++; b.fails >= b.opts.Threshold {
		b.state = breakerOpen
		b.openedAt = b.opts.Now()
		b.trips++
	}
}

func (b *Breaker) do(op func() error) error {
	ok, probe := b.allow()
	if !ok {
		return ErrUnavailable
	}
	err := op()
	b.record(err, probe)
	return err
}

// BlockSize returns the wrapped block size.
func (b *Breaker) BlockSize() int { return b.inner.BlockSize() }

// ReadBlock fails fast when the circuit is open.
func (b *Breaker) ReadBlock(id int, buf []float64) error {
	return b.do(func() error { return b.inner.ReadBlock(id, buf) })
}

// WriteBlock fails fast when the circuit is open.
func (b *Breaker) WriteBlock(id int, data []float64) error {
	return b.do(func() error { return b.inner.WriteBlock(id, data) })
}

// ReadBlocks fails fast when the circuit is open; the batch is one
// breaker-accounted operation.
func (b *Breaker) ReadBlocks(ids []int, bufs [][]float64) error {
	return b.do(func() error { return ReadBlocksOf(b.inner, ids, bufs) })
}

// WriteBlocks fails fast when the circuit is open.
func (b *Breaker) WriteBlocks(ids []int, data [][]float64) error {
	return b.do(func() error { return WriteBlocksOf(b.inner, ids, data) })
}

// Close forwards.
func (b *Breaker) Close() error { return b.inner.Close() }

// String describes the breaker state for logs.
func (b *Breaker) String() string {
	return fmt.Sprintf("breaker[%s]", b.State())
}

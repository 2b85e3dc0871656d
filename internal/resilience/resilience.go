// Package resilience is the unified failure-handling policy layer:
// one jittered-exponential-backoff retry policy with deadline-budget
// awareness, consumed by the remote client, and one per-target
// circuit breaker, consumed by the fleet Router for each replica.
//
// The two pieces compose but do not couple: a Policy decides how long
// to wait between attempts against one logical service, a Breaker
// decides whether a specific target is worth an attempt at all.
// Both are safe for concurrent use.
package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Policy is a jittered exponential retry-backoff policy: attempt k
// waits Base·2^k plus up to 50% jitter, capped at Max, floored by a
// server Retry-After hint when one was sent. Construct with
// NewPolicy; the struct carries its own jitter source, so it is not
// copyable.
type Policy struct {
	base time.Duration
	max  time.Duration

	mu  sync.Mutex
	rnd *rand.Rand
}

// NewPolicy builds a retry policy from the base delay and the
// per-attempt cap. A base of zero (or less) means retry immediately;
// a cap of zero falls back to 2s.
func NewPolicy(base, max time.Duration) *Policy {
	if max <= 0 {
		max = 2 * time.Second
	}
	return &Policy{base: base, max: max, rnd: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

// Delay computes the wait before retrying after attempt (0-based):
// jittered exponential from the attempt number, floored by the
// server's Retry-After hint. An explicit hint of zero means "retry
// immediately" (the server's queue just drained) and short-circuits
// the backoff entirely; only an absent hint falls back to pure
// backoff.
func (p *Policy) Delay(attempt int, hint time.Duration, hasHint bool) time.Duration {
	if hasHint && hint == 0 {
		return 0
	}
	// Cap the exponent before shifting: a large retry budget must not
	// overflow the shift into a negative duration.
	d := p.max
	if p.base <= 0 {
		d = 0
	} else if attempt < 30 {
		if shifted := p.base << attempt; shifted > 0 && shifted < p.max {
			d = shifted
		}
	}
	if d > 0 {
		p.mu.Lock()
		d += time.Duration(p.rnd.Int63n(int64(d)/2 + 1))
		p.mu.Unlock()
	}
	if hint > d {
		d = hint
	}
	return d
}

// ErrBudget reports a retry delay that exceeds the remaining context
// deadline budget: sleeping it out could only end in the deadline
// firing, so Sleep fails immediately instead of parking the caller.
// It wraps context.DeadlineExceeded — the deadline is the reason the
// retry cannot happen — so errors.Is(err, context.DeadlineExceeded)
// holds for callers that classify by cause.
var ErrBudget = fmt.Errorf("resilience: retry delay exceeds remaining deadline budget: %w", context.DeadlineExceeded)

// Sleep waits out the Delay for attempt, or returns early: with the
// context's error when it ends mid-wait, or with ErrBudget — without
// sleeping at all — when the computed delay cannot fit in the
// context's remaining deadline budget. A malicious or miscalibrated
// Retry-After hint therefore costs nothing: the caller learns
// immediately that its budget is spent instead of burning it parked.
func (p *Policy) Sleep(ctx context.Context, attempt int, hint time.Duration, hasHint bool) error {
	d := p.Delay(attempt, hint, hasHint)
	if d <= 0 {
		return ctx.Err()
	}
	if deadline, ok := ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining <= d {
			return fmt.Errorf("%w (need %v, have %v)", ErrBudget, d, remaining)
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Breaker states. The numeric values are the wire contract of the
// llm4vv_resilience_breaker_state gauge: dashboards alert on 2.
const (
	StateClosed   State = 0 // normal operation, requests flow
	StateHalfOpen State = 1 // cooled down, one probe in flight
	StateOpen     State = 2 // tripped, requests refused
)

// State is a circuit breaker state.
type State int32

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// BreakerStatus is one breaker's identity and state, the currency of
// the optional BreakerStates() []BreakerStatus interface that metrics
// endpoints discover on endpoints fronting multiple targets.
type BreakerStatus struct {
	ID    string
	State State
	Trips uint64
}

// BreakerConfig configures a Breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the
	// breaker open; <= 0 means DefaultBreakerThreshold.
	Threshold int
	// Cooldown is how long an open breaker refuses before allowing a
	// half-open probe; <= 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

// Defaults for BreakerConfig zero values.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 500 * time.Millisecond
)

// Breaker is a consecutive-failure circuit breaker for one target:
// Threshold consecutive failures trip it open, the Cooldown later it
// admits exactly one half-open probe, and the probe's outcome closes
// it or re-opens it.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool
	trips    uint64
}

// NewBreaker builds a breaker from cfg, defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultBreakerThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{threshold: cfg.Threshold, cooldown: cfg.Cooldown, now: cfg.Clock}
}

// Allow reports whether a request may proceed against this target.
// It is consuming in the half-open state: the first Allow after the
// cooldown claims the single probe slot, and further Allows refuse
// until that probe reports Success or Failure — so call Allow only
// when the request will actually be sent.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = StateHalfOpen
		b.probing = true
		return true
	default: // StateHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful request, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = StateClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed request: in the closed state it counts
// toward the trip threshold, in the half-open state it re-opens the
// breaker for another cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case StateHalfOpen:
		b.trip()
	case StateOpen:
		// Fallback traffic through an open breaker ("progress beats
		// protection") failing again keeps it open; refresh the window
		// so the cooldown measures from the latest evidence.
		b.openedAt = b.now()
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = StateOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
	b.trips++
}

// State reports the breaker's current state without consuming the
// half-open probe slot. An open breaker whose cooldown has elapsed
// still reports open until an Allow claims the probe.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has tripped open.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

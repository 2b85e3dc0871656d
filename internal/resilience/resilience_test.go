package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelayExponentialCapped(t *testing.T) {
	p := NewPolicy(10*time.Millisecond, 100*time.Millisecond)
	for attempt, base := range []time.Duration{10, 20, 40, 80, 100, 100} {
		base *= time.Millisecond
		d := p.Delay(attempt, 0, false)
		if d < base || d > base+base/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, base+base/2)
		}
	}
}

func TestDelayHugeAttemptDoesNotOverflow(t *testing.T) {
	p := NewPolicy(25*time.Millisecond, 2*time.Second)
	for _, attempt := range []int{29, 30, 31, 63, 1000} {
		if d := p.Delay(attempt, 0, false); d < 2*time.Second || d > 3*time.Second {
			t.Errorf("attempt %d: delay %v, want capped near 2s", attempt, d)
		}
	}
}

func TestDelayHintSemantics(t *testing.T) {
	p := NewPolicy(time.Millisecond, time.Second)
	// An explicit zero hint short-circuits backoff entirely.
	if d := p.Delay(10, 0, true); d != 0 {
		t.Errorf("explicit zero hint: delay %v, want 0", d)
	}
	// A hint above the computed backoff floors the delay.
	if d := p.Delay(0, 300*time.Millisecond, true); d < 300*time.Millisecond {
		t.Errorf("hint 300ms floored to %v", d)
	}
	// Zero base with no hint: retry immediately.
	z := NewPolicy(0, time.Second)
	if d := z.Delay(0, 0, false); d != 0 {
		t.Errorf("zero base: delay %v, want 0", d)
	}
}

func TestSleepFailsFastWhenDelayExceedsBudget(t *testing.T) {
	p := NewPolicy(time.Second, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Sleep(ctx, 0, 0, false)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	// The wrap contract: deadline-classifying callers see the cause.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("ErrBudget does not unwrap to context.DeadlineExceeded")
	}
	if elapsed > 20*time.Millisecond {
		t.Errorf("Sleep parked %v before failing; budget exhaustion must be immediate", elapsed)
	}
}

func TestSleepHintClampedByBudget(t *testing.T) {
	// A server Retry-After hint far past the caller's deadline must not
	// park the caller: this is the adversarial-daemon case.
	p := NewPolicy(time.Millisecond, time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Sleep(ctx, 0, time.Hour, true)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("hour-long hint parked the caller %v", elapsed)
	}
}

func TestSleepWaitsAndReturnsNil(t *testing.T) {
	p := NewPolicy(5*time.Millisecond, time.Second)
	start := time.Now()
	if err := p.Sleep(context.Background(), 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("slept only %v, want >= 5ms", elapsed)
	}
}

func TestSleepCancelledContext(t *testing.T) {
	p := NewPolicy(time.Hour, 2*time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Sleep(ctx, 0, 0, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func testBreaker(threshold int, cooldown time.Duration, clock *time.Time) *Breaker {
	return NewBreaker(BreakerConfig{
		Threshold: threshold,
		Cooldown:  cooldown,
		Clock:     func() time.Time { return *clock },
	})
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	now := time.Unix(0, 0)
	b := testBreaker(3, time.Second, &now)
	if got := b.State(); got != StateClosed {
		t.Fatalf("fresh breaker state %v, want closed", got)
	}
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("breaker refused below threshold")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker allowed after tripping")
	}
	if got := b.State(); got != StateOpen {
		t.Fatalf("state %v, want open", got)
	}
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips %d, want 1", got)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	now := time.Unix(0, 0)
	b := testBreaker(3, time.Second, &now)
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Failure()
		b.Success() // streak broken: never reaches 3 consecutive
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state %v, want closed (failures were not consecutive)", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := testBreaker(1, time.Second, &now)
	b.Failure()
	if b.Allow() {
		t.Fatal("allowed while open")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: first Allow must claim the probe")
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("second Allow admitted a request while the probe is outstanding")
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after probe success %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := testBreaker(1, time.Second, &now)
	b.Failure()
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after probe failure %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed before a fresh cooldown")
	}
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips %d, want 2", got)
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed: probe refused")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{StateClosed: "closed", StateHalfOpen: "half-open", StateOpen: "open", State(7): "state(7)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

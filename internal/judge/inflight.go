package judge

import (
	"context"
	"sync"
)

// Inflight is a singleflight table keyed by PromptKey: while one
// caller (the leader) resolves a prompt, concurrent callers asking for
// the same prompt wait for its answer instead of asking again. An
// entry lives only from its leader's registration to its landing.
// The zero value is ready to use.
//
// The protocol is register-first: Do registers a key before fetch,
// the leader's lookup, runs, so fetch must check the caller's cache
// (memo, run store) before it calls the endpoint, and must publish
// what it resolved there before it returns. Do then removes the entry
// and only then wakes the waiters, so a caller arriving after the
// removal finds the published answer. A waiter whose leader failed —
// typically because the leader's context ended — retries as a leader
// under its own context; it never inherits the leader's error.
type Inflight struct {
	mu      sync.Mutex
	flights map[PromptKey]*flight
	waiting int // prompts waiting on the flights in the table
}

// flight is one key's resolution. resp and err are written before
// done is closed; the flights one Do call leads share one done.
type flight struct {
	done    chan struct{}
	resp    string
	err     error
	waiters int // guarded by Inflight.mu
}

// waiter is an index waiting on a flight.
type waiter struct {
	idx int
	f   *flight
}

// Len reports how many prompts are in flight.
func (t *Inflight) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flights)
}

// Waiting reports how many prompts wait on a flight in the table,
// duplicates within the leader's own keys included.
func (t *Inflight) Waiting() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting
}

// Do resolves keys[i] into out[i]. It leads every key not already in
// flight (the first occurrence of a repeated key) and calls fetch once
// with the led indexes; fetch returns one response per index, in
// order. Every other index waits for its leader. Do returns fetch's
// error, or ctx.Err() if ctx ends while it waits.
func (t *Inflight) Do(ctx context.Context, keys []PromptKey, out []string, fetch func(led []int) ([]string, error)) error {
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		led, flights, waits := t.join(keys, pending)
		if len(led) > 0 {
			resps, err := fetch(led)
			t.land(keys, led, flights, resps, err)
			if err != nil {
				return err
			}
			for n, i := range led {
				out[i] = resps[n]
			}
		}
		pending = pending[:0]
		for _, w := range waits {
			select {
			case <-w.f.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			switch {
			case w.f.err == nil:
				out[w.idx] = w.f.resp
			case ctx.Err() != nil:
				return ctx.Err()
			default: // the leader failed: retry as a leader
				pending = append(pending, w.idx)
			}
		}
	}
	return nil
}

// join registers a flight for each pending key not in the table. It
// returns the indexes this call leads with their flights, and the
// indexes that wait.
func (t *Inflight) join(keys []PromptKey, pending []int) (led []int, flights []flight, waits []waiter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.flights == nil {
		t.flights = map[PromptKey]*flight{}
	}
	var done chan struct{}
	for _, i := range pending {
		if f, ok := t.flights[keys[i]]; ok {
			f.waiters++
			t.waiting++
			waits = append(waits, waiter{i, f})
			continue
		}
		if done == nil {
			// Sized for every pending key, so the pointers the table
			// holds stay valid as the slice fills.
			done = make(chan struct{})
			flights = make([]flight, 0, len(pending))
			led = make([]int, 0, len(pending))
		}
		flights = append(flights, flight{done: done})
		t.flights[keys[i]] = &flights[len(flights)-1]
		led = append(led, i)
	}
	return led, flights, waits
}

// land publishes a leader's outcome: the led keys leave the table,
// then their waiters wake.
func (t *Inflight) land(keys []PromptKey, led []int, flights []flight, resps []string, err error) {
	t.mu.Lock()
	for n, i := range led {
		delete(t.flights, keys[i])
		t.waiting -= flights[n].waiters
		if err != nil {
			flights[n].err = err
		} else {
			flights[n].resp = resps[n]
		}
	}
	t.mu.Unlock()
	close(flights[0].done)
}

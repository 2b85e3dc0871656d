package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled operation of an open loop.
type arrival struct {
	due time.Duration // offset from the loop's start
	op  int           // index into the caller's operations
}

// outcome is one operation's fate.
type outcome struct {
	ok bool
	// latency runs from the due time to completion, so it includes
	// any time the operation waited for a free slot or a late
	// generator: a stall is charged to every request it delays.
	latency time.Duration
	// late is how far after its due time the operation was sent.
	late time.Duration
}

// runOpenLoop issues the arrivals in order, each no earlier than its
// due time, with at most slots operations in flight; an arrival whose
// slot is still busy at its due time goes out late instead of being
// dropped. send performs one operation and reports success. Outcomes
// are indexed like arrivals.
func runOpenLoop(arrivals []arrival, slots int, send func(op int) bool) []outcome {
	out := make([]outcome, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				waitUntil(start, a.due)
				sent := time.Since(start)
				ok := send(a.op)
				out[i] = outcome{ok: ok, latency: time.Since(start) - a.due, late: sent - a.due}
			}
		}()
	}
	wg.Wait()
	return out
}

// spinWindow is how long before a due time the generator stops
// sleeping and yields in a loop instead. An idle Go process wakes from
// a sleep through the netpoller, whose timeout has millisecond
// resolution, so a plain sleep sends up to a millisecond late; that
// lateness would be charged to a 4 ms request as latency.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at start+due: it sleeps until spinWindow before,
// then yields its P to runnable goroutines until the due time.
func waitUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start); wait > spinWindow {
		time.Sleep(wait - spinWindow)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// latenciesMS returns the outcomes' latencies in milliseconds, a
// failed operation as +Inf: a refused or failed request misses every
// latency limit.
func latenciesMS(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		if !o.ok {
			ms[i] = math.Inf(1)
			continue
		}
		ms[i] = float64(o.latency) / 1e6
	}
	return ms
}

package leakcheck

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestSeesAndOutlivesAGoroutine: a goroutine started after a snapshot
// shows up under a new ID with its own stack, and Settle sees the count
// fall back once it exits.
func TestSeesAndOutlivesAGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[goroutineID(g)] = true
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		blockUntil(release)
	}()
	time.Sleep(10 * time.Millisecond)

	var fresh [][]byte
	for _, g := range goroutines() {
		if !before[goroutineID(g)] {
			fresh = append(fresh, g)
		}
	}
	if len(fresh) != 1 || !bytes.Contains(fresh[0], []byte("leakcheck.blockUntil")) {
		t.Fatalf("want the one blocked goroutine, got %d:\n%s", len(fresh), bytes.Join(fresh, []byte("\n\n")))
	}
	if n := Settle(start, 20*time.Millisecond); n <= start {
		t.Errorf("Settle = %d with a goroutine still blocked, want > %d", n, start)
	}
	close(release)
	<-done
	if n := Settle(start, Grace); n > start {
		t.Errorf("Settle = %d after the goroutine exited, want <= %d", n, start)
	}
}

func blockUntil(c chan struct{}) { <-c }

// Package leakcheck is a goroutine-leak gate for test binaries. A
// package installs it from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
//
// Every goroutine started while the tests ran must be gone within
// Grace after them; if one is not, the binary fails and prints its
// stack. Only test files import this package.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Grace is how long Main waits after the tests for goroutines that are
// already on their way out (a closed server's connection readers, a
// stopped ticker loop) to finish.
const Grace = time.Second

// exempt marks the one goroutine allowed to outlive the tests: the
// runtime's signal loop, which the first signal.Notify starts for the
// life of the process (the fuzzing engine calls it under -fuzz).
var exempt = []byte("os/signal.loop")

// Main runs the tests and returns the exit code for os.Exit: m.Run's,
// or 1 when a goroutine started during the tests outlives them by more
// than Grace.
func Main(m *testing.M) int {
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[goroutineID(g)] = true
	}
	code := m.Run()
	deadline := time.Now().Add(Grace)
	for {
		var left [][]byte
		for _, g := range goroutines() {
			if !before[goroutineID(g)] && !bytes.Contains(g, exempt) {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines started by the tests still running %v after them:\n\n%s\n",
				len(left), Grace, bytes.Join(left, []byte("\n\n")))
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Settle waits up to d for the goroutine count to fall to n or below,
// and returns the last count it saw.
func Settle(n int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		got := runtime.NumGoroutine()
		if got <= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines returns every goroutine's stack, as runtime.Stack
// formats it.
func goroutines() [][]byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(bytes.TrimSpace(buf[:n]), []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineID is the "goroutine N" prefix of a stack's header line.
func goroutineID(stack []byte) string {
	header, _, _ := bytes.Cut(stack, []byte(" ["))
	return string(header)
}

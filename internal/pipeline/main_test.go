package pipeline

import (
	"os"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's tests when a goroutine they started
// outlives them (see leakcheck).
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }

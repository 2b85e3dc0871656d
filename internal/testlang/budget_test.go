package testlang

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/spec"
)

// TestParseFileByteBudget holds parsing one corpus file (testdata,
// 1 KB of C with a #define and three pragmas) to the heap bytes the
// AST and error list need: tokens stream through the parser, so no
// token slice is built per file.
func TestParseFileByteBudget(t *testing.T) {
	src, err := os.ReadFile("testdata/acc_data_region.c")
	if err != nil {
		t.Fatal(err)
	}
	parse := func() {
		if _, errs := ParseFile(string(src), LangC, spec.OpenACC); len(errs) != 0 {
			t.Fatalf("parse errors: %v", errs)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parse()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per parse", got)
	const limit = 12 << 10
	if got > limit {
		t.Fatalf("ParseFile allocated %d bytes, want at most %d", got, limit)
	}
}

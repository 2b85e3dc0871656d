package testlang

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestParseFileByteBudget holds parsing one corpus file (testdata,
// 1 KB of C with a #define and three pragmas) to the heap bytes the
// AST and error list need: tokens stream through the parser, so no
// token slice is built per file, and nodes and lists come from the
// parse's slabs.
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
	const limit = 9728
	if got > limit {
		t.Fatalf("ParseFile allocated %d bytes, want at most %d", got, limit)
	}
}

// TestParseLongSourceFewNodes holds a long source with few nodes (150
// KB of comments around one small function) to the bytes its nodes
// need, not chunks sized for its length.
func TestParseLongSourceFewNodes(t *testing.T) {
	src := strings.Repeat("// a comment line of filler\n", 5000) + "int main() { int a = 1; return a + 2; }\n"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, errs := ParseFile(src, LangC, spec.OpenACC); len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes for %d bytes of source", got, len(src))
	const limit = 32 << 10
	if got > limit {
		t.Fatalf("ParseFile allocated %d bytes, want at most %d", got, limit)
	}
}

package store

// Tests for Compact: the store folds into one sealed segment and an
// empty active file, superseded duplicates and corrupt lines drop out,
// live records and append behaviour survive, and compaction is
// canonical — the same records always compact to the same segment
// bytes.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// compactedSegment asserts the post-Compact layout — exactly one sealed
// segment holding lines lines and an empty active file — and returns
// the segment's bytes.
func compactedSegment(t *testing.T, path string, lines int) []byte {
	t.Helper()
	segs := segFiles(t, path)
	if len(segs) != 1 {
		t.Fatalf("compacted store has segments %v, want exactly one", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != lines {
		t.Fatalf("compacted segment has %d lines, want %d", got, lines)
	}
	if got := countLines(t, path); got != 0 {
		t.Fatalf("active file has %d lines after compact, want 0", got)
	}
	return data
}

func TestCompactDropsSupersededAndCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Three writes to one key (two superseded) plus two other keys.
	if err := s.Put(testRecord("p", "h1", "valid")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("p", "h1", "invalid")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("p", "h1", "unparsable")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("p", "h2", "valid")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("q", "h1", "invalid")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Splice in a corrupt line mid-file, the way outside interference
	// would.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{torn garbage\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Dropped() != 1 {
		t.Fatalf("setup: expected 1 corrupt line, got %d", s.Dropped())
	}
	removed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// 6 physical lines (5 records + garbage) compact to 3 live keys.
	if removed != 3 {
		t.Errorf("Compact removed %d lines, want 3", removed)
	}
	compactedSegment(t, path, 3)

	// The survivors are the last-write-wins records, and the store
	// still appends.
	if rec, ok := s.Get(Key{Experiment: "p", Backend: "deepseek-sim", Seed: 33, FileHash: "h1"}); !ok || rec.Verdict != "unparsable" {
		t.Errorf("live record lost by compact: %+v ok=%v", rec, ok)
	}
	if err := s.Put(testRecord("r", "h9", "valid")); err != nil {
		t.Fatalf("append after compact: %v", err)
	}

	// Reopen: same index, no drops.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 4 || s2.Dropped() != 0 {
		t.Errorf("reopened compacted store: %d keys (want 4), %d dropped (want 0)", s2.Len(), s2.Dropped())
	}
	if rec, ok := s2.Get(Key{Experiment: "p", Backend: "deepseek-sim", Seed: 33, FileHash: "h1"}); !ok || rec.Verdict != "unparsable" {
		t.Errorf("compacted store resolves wrong record: %+v ok=%v", rec, ok)
	}
}

func TestCompactIsCanonical(t *testing.T) {
	recs := []Record{
		testRecord("a", "h1", "valid"),
		testRecord("a", "h2", "invalid"),
		testRecord("b", "h1", "valid"),
	}
	write := func(order []int) string {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := s.Put(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return string(compactedSegment(t, path, len(recs)))
	}
	a, b := write([]int{0, 1, 2}), write([]int{2, 0, 1})
	if a == "" {
		t.Fatal("compacted segment is empty")
	}
	if a != b {
		t.Errorf("same records in different orders compacted to different bytes:\n%q\n%q", a, b)
	}
}

func TestCompactEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	removed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("empty store compact removed %d lines", removed)
	}
}

// TestCompactClearsCorruptOnlyActiveFile: an active file holding only a
// torn line has nothing to seal, yet Compact still empties it.
func TestCompactClearsCorruptOnlyActiveFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(`{"experiment":"p","back`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	removed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || s.Dropped() != 0 {
		t.Errorf("Compact removed %d lines (want 1), left %d dropped (want 0)", removed, s.Dropped())
	}
	if got := countLines(t, path); got != 0 {
		t.Errorf("active file has %d lines after compact, want 0", got)
	}
	if segs := segFiles(t, path); len(segs) != 0 {
		t.Errorf("compact of a record-less store wrote segments %v", segs)
	}
}

func TestCompactPreservesFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testRecord("p", "h1", "valid")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o664); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o664 {
		t.Errorf("compact changed file mode to %v, want 0664", got)
	}
}

func TestCompactPreservesResponseRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Experiment: "serve/completions", Backend: "echo", Seed: 7,
		FileHash: HashSource("prompt"), JudgeRan: true, Response: "the full completion text"}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(rec.Key())
	if !ok || got.Response != rec.Response {
		t.Errorf("completion record lost through compact: %+v ok=%v", got, ok)
	}
}

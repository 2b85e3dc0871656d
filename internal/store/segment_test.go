package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// mkrec builds a minimal verdict record for segment tests.
func mkrec(exp, backend string, seed uint64, hash, verdict string) Record {
	return Record{
		Experiment: exp,
		Backend:    backend,
		Seed:       seed,
		FileHash:   hash,
		Name:       "t-" + hash,
		JudgeRan:   true,
		Verdict:    verdict,
		Valid:      verdict == "valid",
	}
}

// sealEvery forces a seal after every Put and disables background
// merging, giving tests deterministic one-record segments.
var sealEvery = Options{SealBytes: 1, MergeThreshold: -1}

func segFiles(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".seg-*")
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return matches
}

func TestSealAndPointLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, sealEvery)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Put(mkrec("judge", "deepseek-sim", 33, fmt.Sprintf("h%03d", i), "valid")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.SegmentCount() != n {
		t.Fatalf("SegmentCount = %d, want %d (seal per put)", st.SegmentCount(), n)
	}
	if st.ActiveRecords != 0 || st.ActiveBytes != 0 {
		t.Fatalf("active segment not empty after seals: %+v", st)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: fmt.Sprintf("h%03d", i)}
		if rec, ok := s.Get(k); !ok || rec.Verdict != "valid" {
			t.Fatalf("Get(%v) = %+v, %v", k, rec, ok)
		}
		if !s.Has(k) {
			t.Fatalf("Has(%v) = false", k)
		}
	}
	if _, ok := s.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "absent"}); ok {
		t.Fatal("Get on absent key reported a record")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen with defaults: segments persist, everything still found.
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != n || s2.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want %d/0", s2.Len(), s2.Dropped(), n)
	}
	if rec, ok := s2.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "h007"}); !ok || rec.Name != "t-h007" {
		t.Fatalf("reopened Get = %+v, %v", rec, ok)
	}
}

func TestIdenticalRePutAgainstSealedRecordIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, sealEvery)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	rec := mkrec("judge", "deepseek-sim", 33, "h1", "valid")
	if err := s.Put(rec); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Put(rec); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	st := s.Stats()
	if st.ActiveLines != 0 || st.ActiveBytes != 0 {
		t.Fatalf("identical re-put against sealed record grew the active segment: %+v", st)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestLastWriteWinsAcrossSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, sealEvery)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(mkrec("judge", "deepseek-sim", 33, "h1", "invalid")); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	if err := s.Put(mkrec("judge", "deepseek-sim", 33, "h1", "valid")); err != nil {
		t.Fatalf("put v2: %v", err)
	}
	k := Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "h1"}
	if rec, ok := s.Get(k); !ok || rec.Verdict != "valid" {
		t.Fatalf("Get = %+v, %v; want superseding record", rec, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec, ok := s2.Get(k); !ok || rec.Verdict != "valid" {
		t.Fatalf("reopened Get = %+v, %v; want superseding record", rec, ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
}

func TestTornTailInActiveSegmentWithSealedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, sealEvery)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(mkrec("judge", "deepseek-sim", 33, "h1", "valid")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crash signature: an append torn mid-record, no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("reopen raw: %v", err)
	}
	if _, err := f.WriteString(`{"experiment":"judge","backend":"deepseek-s`); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 || s2.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1/1", s2.Len(), s2.Dropped())
	}
	if _, ok := s2.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "h1"}); !ok {
		t.Fatal("sealed record lost after torn active tail")
	}
	// The terminated tail must not swallow the next append.
	if err := s2.Put(mkrec("judge", "deepseek-sim", 33, "h2", "valid")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("final Len = %d, want 2", s3.Len())
	}
}

func TestPartialSealLeavesOnlyTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, Options{SealBytes: -1, MergeThreshold: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(mkrec("judge", "deepseek-sim", 33, "h1", "valid")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A seal interrupted before its rename leaves the records in the
	// active file and a half-written tmp beside it.
	tmp := segPath(path, 1) + ".tmp"
	if err := os.WriteFile(tmp, []byte(`{"experiment":"judge","backend":"deep`), 0o644); err != nil {
		t.Fatalf("write tmp: %v", err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp leftover not cleaned: stat err = %v", err)
	}
	if s2.Len() != 1 || s2.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 1/0", s2.Len(), s2.Dropped())
	}
	if len(segFiles(t, path)) != 0 {
		t.Fatalf("unexpected sealed segments: %v", segFiles(t, path))
	}
}

// writeSegmentFile hand-builds a sealed segment: sorted JSONL records
// under the given sequence number, as a crashed process would have
// left it after a completed rename.
func writeSegmentFile(t *testing.T, storePath string, seq uint64, recs ...Record) {
	t.Helper()
	var b strings.Builder
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(segPath(storePath, seq), []byte(b.String()), 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}
}

func TestInterruptedMergeRecovers(t *testing.T) {
	// A merge of seg-1 + seg-2 renames its output over seg-2 (the
	// newest input) and then removes seg-1. Crash between those steps:
	// seg-2 holds the merged world, seg-1 holds stale duplicates, and
	// a tmp of a second interrupted attempt lies around too.
	path := filepath.Join(t.TempDir(), "st.jsonl")
	writeSegmentFile(t, path, 1,
		mkrec("judge", "deepseek-sim", 33, "a", "invalid"), // superseded in seg-2
		mkrec("judge", "deepseek-sim", 33, "b", "valid"),   // duplicated in seg-2
	)
	writeSegmentFile(t, path, 2,
		mkrec("judge", "deepseek-sim", 33, "a", "valid"),
		mkrec("judge", "deepseek-sim", 33, "b", "valid"),
		mkrec("judge", "deepseek-sim", 33, "c", "valid"),
	)
	tmp := segPath(path, 2) + ".tmp"
	if err := os.WriteFile(tmp, []byte("{half a merge"), 0o644); err != nil {
		t.Fatalf("write tmp: %v", err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("merge tmp not cleaned: stat err = %v", err)
	}
	if s.Len() != 3 || s.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 3/0", s.Len(), s.Dropped())
	}
	if rec, ok := s.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "a"}); !ok || rec.Verdict != "valid" {
		t.Fatalf("stale segment shadowed the merged record: %+v, %v", rec, ok)
	}

	// Compact folds the leftovers into one segment.
	removed, err := s.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if removed != 2 { // 5 physical lines, 3 live keys
		t.Fatalf("removed = %d, want 2", removed)
	}
	compactedSegment(t, path, 3)
	if rec, ok := s.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "a"}); !ok || rec.Verdict != "valid" {
		t.Fatalf("compact lost the live record: %+v, %v", rec, ok)
	}
}

func TestLargeRecordsAcrossSegmentBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, Options{SealBytes: 1, MergeThreshold: -1, SparseInterval: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Each record carries a >64KiB response: bigger than the readers'
	// buffer size and bufio.Scanner's default token cap.
	big := make([]string, 4)
	for i := range big {
		big[i] = strings.Repeat(fmt.Sprintf("chunk-%d ", i), 10000) // ~80KiB
		rec := mkrec("judge", "deepseek-sim", 33, fmt.Sprintf("big%d", i), "valid")
		rec.Response = big[i]
		if err := s.Put(rec); err != nil {
			t.Fatalf("put big %d: %v", i, err)
		}
	}
	if got := s.Stats().SegmentCount(); got != len(big) {
		t.Fatalf("SegmentCount = %d, want %d", got, len(big))
	}
	for i := range big {
		k := Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: fmt.Sprintf("big%d", i)}
		rec, ok := s.Get(k)
		if !ok || rec.Response != big[i] {
			t.Fatalf("big record %d did not round-trip through its segment", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != len(big) || s2.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want %d/0", s2.Len(), s2.Dropped(), len(big))
	}
	for i := range big {
		k := Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: fmt.Sprintf("big%d", i)}
		rec, ok := s2.Get(k)
		if !ok || rec.Response != big[i] {
			t.Fatalf("big record %d lost across reopen", i)
		}
	}
}

func TestBackgroundMergeCoalescesSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, Options{SealBytes: 1, MergeThreshold: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Put(mkrec("judge", "deepseek-sim", 33, fmt.Sprintf("h%d", i), "valid")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil { // waits for the in-flight merge
		t.Fatalf("close: %v", err)
	}
	if left := segFiles(t, path); len(left) >= n {
		t.Fatalf("merge never coalesced: %d segment files for %d seals", len(left), n)
	}
	for _, p := range segFiles(t, path) {
		if strings.HasSuffix(p, ".tmp") {
			t.Fatalf("tmp file survived Close: %s", p)
		}
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != n || s2.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want %d/0", s2.Len(), s2.Dropped(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: fmt.Sprintf("h%d", i)}); !ok {
			t.Fatalf("record h%d lost in merge", i)
		}
	}
}

func TestLegacyMigrationSealsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	// A pre-segmentation store: plain single JSONL file, never sealed.
	s, err := OpenWith(path, Options{SealBytes: -1, MergeThreshold: -1})
	if err != nil {
		t.Fatalf("open legacy: %v", err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(mkrec("judge", "deepseek-sim", 33, fmt.Sprintf("h%02d", i), "valid")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(segFiles(t, path)) != 0 {
		t.Fatal("legacy store grew segments")
	}

	// First segmented open migrates: the oversized active file seals.
	s2, err := OpenWith(path, Options{SealBytes: 1, MergeThreshold: -1})
	if err != nil {
		t.Fatalf("migrating open: %v", err)
	}
	st := s2.Stats()
	if st.SegmentCount() != 1 || st.ActiveRecords != 0 {
		t.Fatalf("migration did not seal: %+v", st)
	}
	if s2.Len() != n {
		t.Fatalf("Len = %d, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: fmt.Sprintf("h%02d", i)}); !ok {
			t.Fatalf("record h%02d lost in migration", i)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// And a plain default Open still reads the migrated layout.
	s3, err := Open(path)
	if err != nil {
		t.Fatalf("post-migration open: %v", err)
	}
	defer s3.Close()
	if s3.Len() != n || s3.Dropped() != 0 {
		t.Fatalf("post-migration Len=%d Dropped=%d, want %d/0", s3.Len(), s3.Dropped(), n)
	}
}

func TestScanFiltersAndStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, Options{SealBytes: 1, MergeThreshold: -1, SparseInterval: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	put := func(exp, backend string, seed uint64, hash string, unix int64) {
		rec := mkrec(exp, backend, seed, hash, "valid")
		rec.Unix = unix
		if err := s.Put(rec); err != nil {
			t.Fatalf("put %s/%s/%s: %v", exp, backend, hash, err)
		}
	}
	put("judge", "deepseek-sim", 33, "a", 100)
	put("judge", "deepseek-sim", 33, "b", 200)
	put("judge", "deepseek-sim", 33, "c", 300)
	put("judge", "gpt-sim", 33, "a", 100)
	put("judge", "deepseek-sim", 44, "a", 100)
	put("panel", "deepseek-sim", 33, "a", 100)
	// One record superseded across active/segment: last write wins.
	put("judge", "deepseek-sim", 33, "b", 250)

	collect := func(f Filter) []Record {
		var out []Record
		if err := s.Scan(f, func(rec Record) bool {
			out = append(out, rec)
			return true
		}); err != nil {
			t.Fatalf("scan %+v: %v", f, err)
		}
		return out
	}

	seed := uint64(33)
	got := collect(Filter{Experiment: "judge", Backend: "deepseek-sim", Seed: &seed})
	if len(got) != 3 {
		t.Fatalf("full prefix scan returned %d records, want 3", len(got))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i].FileHash != want {
			t.Fatalf("scan order: got[%d].FileHash = %q, want %q", i, got[i].FileHash, want)
		}
	}
	if got[1].Unix != 250 {
		t.Fatalf("superseded record leaked through scan: Unix = %d, want 250", got[1].Unix)
	}

	if got := collect(Filter{Experiment: "judge", Backend: "deepseek-sim"}); len(got) != 4 {
		t.Fatalf("backend scan returned %d records, want 4 (both seeds)", len(got))
	}
	if got := collect(Filter{Experiment: "judge"}); len(got) != 5 {
		t.Fatalf("experiment scan returned %d records, want 5", len(got))
	}
	if got := collect(Filter{}); len(got) != 6 {
		t.Fatalf("unfiltered scan returned %d records, want 6", len(got))
	}
	if got := collect(Filter{Experiment: "judge", Backend: "deepseek-sim", Seed: &seed, Since: 150, Until: 260}); len(got) != 1 || got[0].FileHash != "b" {
		t.Fatalf("time-windowed scan = %+v, want just b", got)
	}

	// Early stop: yield=false ends the scan without error.
	count := 0
	if err := s.Scan(Filter{}, func(Record) bool { count++; return count < 2 }); err != nil {
		t.Fatalf("early-stop scan: %v", err)
	}
	if count != 2 {
		t.Fatalf("early-stop yielded %d records, want 2", count)
	}

	// Records keeps its pre-segmentation contract: full prefix,
	// FileHash-sorted.
	recs := s.Records("judge", "deepseek-sim", 33)
	if len(recs) != 3 || recs[0].FileHash != "a" || recs[2].FileHash != "c" {
		t.Fatalf("Records = %+v, want a,b,c", recs)
	}
}

func TestCompactFoldsSegmentsIntoCanonicalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, sealEvery)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Put(mkrec("judge", "deepseek-sim", 33, fmt.Sprintf("h%d", i), "valid")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Supersede one record so Compact has a duplicate to drop.
	if err := s.Put(mkrec("judge", "deepseek-sim", 33, "h0", "invalid")); err != nil {
		t.Fatalf("supersede: %v", err)
	}
	removed, err := s.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	compactedSegment(t, path, n)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if rec, ok := s.Get(Key{Experiment: "judge", Backend: "deepseek-sim", Seed: 33, FileHash: "h0"}); !ok || rec.Verdict != "invalid" {
		t.Fatalf("post-compact Get = %+v, %v", rec, ok)
	}
	// Post-compact appends land in the active file.
	if err := s.Put(mkrec("judge", "deepseek-sim", 33, "h9", "valid")); err != nil {
		t.Fatalf("put after compact: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != n+1 || s2.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want %d/0", s2.Len(), s2.Dropped(), n+1)
	}
}

// openWithSegment writes lines as sealed segment 1 beside an active
// file holding active, and opens the store with a sparse index entry
// every interval records.
func openWithSegment(t testing.TB, segment, active []byte, interval int) (*Store, string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, active, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(path, 1), segment, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(path, Options{SparseInterval: interval, MergeThreshold: -1})
	return s, path, err
}

// scanAll returns every record Scan yields.
func scanAll(t testing.TB, s *Store) []Record {
	t.Helper()
	var recs []Record
	if err := s.Scan(Filter{}, func(rec Record) bool {
		recs = append(recs, rec)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs
}

// TestSegmentGetReadsKeysFromPrefix: a sealed-segment lookup reads each
// line's key from its leading fields and decodes only the line that
// holds the asked key. Key-like text elsewhere in a line — a Response
// quoting a later key, or a whole key prefix — must not match; a line
// of another field order is still found; and a line whose prefix a
// later field contradicts, or that is out of key order, counts for
// neither Get nor Scan. Each case runs with one block and with a
// sparse entry every two records.
func TestSegmentGetReadsKeysFromPrefix(t *testing.T) {
	enc := func(recs ...Record) string {
		var b strings.Builder
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	rec := func(hash, response string) Record {
		r := mkrec("p", "b", 1, hash, "valid")
		r.Response = response
		return r
	}
	cases := []struct {
		name    string
		segment string
		present []Record
		absent  []string
	}{
		{
			name:    "response quotes a later key",
			segment: enc(rec("h1", `x","file_hash":"h3","name":"fake`), rec("h2", `"file_hash":"h3"`), rec("h3", "")),
			present: []Record{rec("h1", `x","file_hash":"h3","name":"fake`), rec("h2", `"file_hash":"h3"`), rec("h3", "")},
			absent:  []string{"h0", "h25", "h4"},
		},
		{
			name:    "response holds a whole key prefix",
			segment: enc(rec("h1", `{"experiment":"p","backend":"b","seed":1,"file_hash":"h9"}`), rec("h2", "")),
			present: []Record{rec("h1", `{"experiment":"p","backend":"b","seed":1,"file_hash":"h9"}`), rec("h2", "")},
			absent:  []string{"h9"},
		},
		{
			name: "another field order",
			segment: enc(rec("h1", "")) +
				`{"name":"t-h2","file_hash":"h2","seed":1,"backend":"b","experiment":"p","judge_ran":true,"verdict":"valid","valid":true}` + "\n" +
				enc(rec("h3", "")),
			present: []Record{rec("h1", ""), rec("h2", ""), rec("h3", "")},
		},
		{
			name:    "escaped key",
			segment: enc(rec("h1", "")) + enc(rec("h2<&>", "")) + enc(rec("h3", "")),
			present: []Record{rec("h1", ""), rec("h2<&>", ""), rec("h3", "")},
		},
		{
			name: "prefix contradicted by a later field",
			segment: enc(rec("h1", "")) +
				`{"experiment":"p","backend":"b","seed":1,"file_hash":"h2","file_hash":"h25"}` + "\n" +
				enc(rec("h3", "")),
			present: []Record{rec("h1", ""), rec("h3", "")},
			absent:  []string{"h2", "h25"},
		},
		{
			name:    "line out of key order",
			segment: enc(rec("h1", ""), rec("h3", ""), rec("h2", ""), rec("h4", "")),
			present: []Record{rec("h1", ""), rec("h3", ""), rec("h4", "")},
			absent:  []string{"h2"},
		},
		{
			name: "keyed line that does not decode",
			segment: enc(rec("h1", "")) +
				`{"experiment":"p","backend":"b","seed":1,"file_hash":"h2","valid":"yes"}` + "\n" +
				enc(rec("h2", ""), rec("h3", "")),
			present: []Record{rec("h1", ""), rec("h3", "")},
			absent:  []string{"h2"},
		},
	}
	for _, tc := range cases {
		for _, interval := range []int{64, 2} {
			t.Run(fmt.Sprintf("%s/interval=%d", tc.name, interval), func(t *testing.T) {
				s, _, err := openWithSegment(t, []byte(tc.segment), nil, interval)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if got := scanAll(t, s); fmt.Sprint(got) != fmt.Sprint(tc.present) {
					t.Errorf("Scan = %+v\nwant %+v", got, tc.present)
				}
				if s.Len() != len(tc.present) {
					t.Errorf("Len = %d, want %d", s.Len(), len(tc.present))
				}
				for _, want := range tc.present {
					if got, ok := s.Get(want.Key()); !ok || got != want {
						t.Errorf("Get(%s) = %+v, %v; want %+v", want.FileHash, got, ok, want)
					}
				}
				for _, h := range tc.absent {
					if got, ok := s.Get(rec(h, "").Key()); ok {
						t.Errorf("Get(%s) = %+v, want absent", h, got)
					}
				}
				if n := s.Stats().ReadErrors; n != 0 {
					t.Errorf("ReadErrors = %d", n)
				}
			})
		}
	}
}

// TestParseKeyRef pins which lines have their key read from the prefix:
// exactly Record's leading fields in order, unescaped printable ASCII
// strings, and a plain decimal seed.
func TestParseKeyRef(t *testing.T) {
	for _, tc := range []struct {
		line string
		want string // the key as "exp/backend/seed/hash"; "" = not read from the prefix
	}{
		{`{"experiment":"p","backend":"b","seed":1,"file_hash":"h"}`, "p/b/1/h"},
		{`{"experiment":"p","backend":"b","seed":0,"file_hash":"h","name":"x"}`, "p/b/0/h"},
		{`{"experiment":"p","backend":"b","seed":18446744073709551615,"file_hash":"h"}`, "p/b/18446744073709551615/h"},
		{`{"experiment":"p","backend":"b","seed":18446744073709551616,"file_hash":"h"}`, ""},
		{`{"experiment":"p","backend":"b","seed":01,"file_hash":"h"}`, ""},
		{`{"experiment":"p","backend":"b","seed":-1,"file_hash":"h"}`, ""},
		{`{"experiment":"p","backend":"b","seed":1,"file_hash":"h"`, ""},
		{`{"experiment":"p","backend":"b","seed":1,"file_hash":"h"x`, ""},
		{`{"experiment":"p<","backend":"b","seed":1,"file_hash":"h"}`, "p</b/1/h"},
		{`{"experiment":"p\u003c","backend":"b","seed":1,"file_hash":"h"}`, ""},
		{`{"experiment":"p\"","backend":"b","seed":1,"file_hash":"h"}`, ""},
		{"{\"experiment\":\"p\xc3\xa9\",\"backend\":\"b\",\"seed\":1,\"file_hash\":\"h\"}", ""},
		{`{ "experiment":"p","backend":"b","seed":1,"file_hash":"h"}`, ""},
		{`{"backend":"b","experiment":"p","seed":1,"file_hash":"h"}`, ""},
	} {
		got := ""
		if ref, ok := parseKeyRef([]byte(tc.line)); ok {
			k := ref.key(Key{})
			got = fmt.Sprintf("%s/%s/%d/%s", k.Experiment, k.Backend, k.Seed, k.FileHash)
		}
		if got != tc.want {
			t.Errorf("parseKeyRef(%s) = %q, want %q", tc.line, got, tc.want)
		}
	}
}

// fuzzActive is the valid active file FuzzOpenSegment opens beside each
// input: one key the seeds also hold, with another verdict, and one
// they do not.
var fuzzActive = func() []byte {
	var b []byte
	for _, r := range []Record{mkrec("p", "b", 1, "h2", "invalid"), mkrec("p", "b", 1, "h9", "valid")} {
		line, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}()

// FuzzOpenSegment: arbitrary bytes as sealed segment 1, beside a valid
// active file, with a sparse index entry every two records so small
// inputs span several blocks. Open never panics; when it succeeds, Scan
// yields strictly ascending keys, as many as Len reports; Get and Has
// find every one of them, and find no other key that any line of the
// input carries; nothing reads with an error; and the records re-encode
// to the same bytes: Compact writes exactly their canonical encodings,
// which scan back as the same records. The checked-in seeds
// (testdata/fuzz/FuzzOpenSegment) hold a torn block, a duplicate key
// across a sparse-index boundary, an unsorted block and garbage; each
// is under 64 KiB.
func FuzzOpenSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, path, err := openWithSegment(t, data, fuzzActive, 2)
		if err != nil {
			return
		}
		defer s.Close()
		recs := scanAll(t, s)
		if len(recs) != s.Len() {
			t.Fatalf("Scan yielded %d records, Len = %d", len(recs), s.Len())
		}
		held := make(map[Key]bool, len(recs))
		for i, rec := range recs {
			if i > 0 && !lessKey(recs[i-1].Key(), rec.Key()) {
				t.Fatalf("Scan out of key order at %d: %+v after %+v", i, rec.Key(), recs[i-1].Key())
			}
			held[rec.Key()] = true
			if got, ok := s.Get(rec.Key()); !ok || got != rec {
				t.Fatalf("Get(%+v) = %v, %+v; Scan gave %+v", rec.Key(), ok, got, rec)
			}
			if !s.Has(rec.Key()) {
				t.Fatalf("Has(%+v) = false", rec.Key())
			}
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			k, ok := Key{}, false
			if ref, keyed := parseKeyRef(line); keyed {
				k, ok = ref.key(Key{}), true
			} else if rec, valid := decodeLine(line); valid {
				k, ok = rec.Key(), true
			}
			if ok && !held[k] {
				if got, ok := s.Get(k); ok {
					t.Fatalf("Get(%+v) = %+v for a key Scan did not yield", k, got)
				}
				if s.Has(k) {
					t.Fatalf("Has(%+v) for a key Scan did not yield", k)
				}
			}
		}
		if n := s.Stats().ReadErrors; n != 0 {
			t.Fatalf("ReadErrors = %d", n)
		}
		if _, err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		var want []byte
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
		segs := segFiles(t, path)
		if len(recs) == 0 {
			if len(segs) != 0 {
				t.Fatalf("compacting no records left segments %v", segs)
			}
			return
		}
		if len(segs) != 1 {
			t.Fatalf("compacted store has segments %v, want one", segs)
		}
		got, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("compacted segment:\n%s\nwant the records' encodings:\n%s", got, want)
		}
		if again := scanAll(t, s); fmt.Sprint(again) != fmt.Sprint(recs) {
			t.Fatalf("records changed through re-encoding:\n%+v\nwant %+v", again, recs)
		}
	})
}

// TestSegmentLookupByteBudget: a store reuses one read buffer for
// every sealed-segment lookup, so a Get that reads a sealed block
// allocates only the record it decodes (about 540 bytes). A fresh
// 4 KiB bufio.Reader per lookup would cost several times the budget.
func TestSegmentLookupByteBudget(t *testing.T) {
	const n, budget = 2000, 1024
	s, err := OpenWith(filepath.Join(t.TempDir(), "run.jsonl"), Options{SealBytes: 16 << 10, MergeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]Key, n)
	for i := range keys {
		rec := testRecord("lookup", HashSource(fmt.Sprint(i)), "valid")
		keys[i] = rec.Key()
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	var sealed []Key
	for _, k := range keys {
		if _, active := s.index[s.fp(k)]; !active {
			sealed = append(sealed, k)
		}
	}
	if len(sealed) < n/2 {
		t.Fatalf("only %d of %d keys sealed", len(sealed), n)
	}
	got := bytesPerCall(len(sealed), func(i int) {
		if rec, ok := s.Get(sealed[i]); !ok || rec.FileHash != sealed[i].FileHash {
			t.Fatalf("Get(%v) = %v, %v", sealed[i], rec, ok)
		}
	})
	t.Logf("%d bytes per sealed lookup", got)
	if got > budget {
		t.Fatalf("a sealed lookup allocated %d bytes, want at most %d", got, budget)
	}
}

// bytesPerCall is the mean heap bytes one call of f allocates, over
// f(0) .. f(runs-1) on one P so that no other goroutine's allocations
// land in the measurement.
func bytesPerCall(runs int, f func(i int)) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f(0) // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

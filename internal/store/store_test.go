package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(exp, hash, verdict string) Record {
	return Record{
		Experiment: exp, Backend: "deepseek-sim", Seed: 33,
		FileHash: hash, Name: "t_" + hash + ".c",
		JudgeRan: true, Verdict: verdict, Valid: verdict == "valid",
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		testRecord("direct-probing", HashSource("int main(){}"), "valid"),
		testRecord("direct-probing", HashSource("bad code"), "invalid"),
		{Experiment: "pipeline/agent-direct", Backend: "b", Seed: 1, FileHash: "abc",
			CompileRan: true, CompileOK: true, ExecRan: true, ExecOK: false, Valid: false},
	}
	for _, rec := range recs {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(recs) || s2.Dropped() != 0 {
		t.Fatalf("reopened: Len=%d Dropped=%d, want %d/0", s2.Len(), s2.Dropped(), len(recs))
	}
	for _, want := range recs {
		got, ok := s2.Get(want.Key())
		if !ok {
			t.Fatalf("record %+v missing after reopen", want.Key())
		}
		if got != want {
			t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestPutIdempotentAndLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("p", "h1", "valid")
	for i := 0; i < 5; i++ {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	changed := rec
	changed.Verdict = "invalid"
	changed.Valid = false
	if err := s.Put(changed); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Errorf("log has %d lines, want 2 (identical re-puts must not append)", lines)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(rec.Key())
	if !ok || got.Verdict != "invalid" {
		t.Errorf("last write did not win: got %+v", got)
	}
}

// TestCorruptedAndTruncatedRecovery: garbage lines and a torn final
// line (the crash signature of an interrupted append) are skipped and
// counted; intact records before AND after the damage stay readable,
// and the recovered store accepts appends that survive a reopen.
func TestCorruptedAndTruncatedRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	good1 := `{"experiment":"p","backend":"b","seed":1,"file_hash":"h1","judge_ran":true,"verdict":"valid","valid":true}`
	good2 := `{"experiment":"p","backend":"b","seed":1,"file_hash":"h2","judge_ran":true,"verdict":"invalid"}`
	content := good1 + "\n" +
		"not json at all\n" +
		`{"experiment":"","backend":"b"}` + "\n" + // parsable but keyless
		good2 + "\n" +
		`{"experiment":"p","backend":"b","seed":1,"file_ha` // torn tail, no newline
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if s.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", s.Dropped())
	}
	for _, h := range []string{"h1", "h2"} {
		if _, ok := s.Get(Key{Experiment: "p", Backend: "b", Seed: 1, FileHash: h}); !ok {
			t.Errorf("record %s lost to recovery", h)
		}
	}
	// The recovered store keeps appending valid lines.
	if err := s.Put(testRecord("p", "h3", "valid")); err != nil {
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
	if _, ok := s2.Get(testRecord("p", "h3", "valid").Key()); !ok {
		t.Error("append after recovery did not survive reopen")
	}
	if s2.Len() != 3 {
		t.Errorf("after recovery+append: Len = %d, want 3", s2.Len())
	}
}

func TestHashSourceDistinguishesContent(t *testing.T) {
	a, b := HashSource("int main(){return 0;}"), HashSource("int main(){return 1;}")
	if a == b {
		t.Fatal("different sources hashed equal")
	}
	if a != HashSource("int main(){return 0;}") {
		t.Fatal("hash not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a))
	}
}

// TestVotesRoundTripAndRecords: panel records carry their per-member
// votes through persistence, and Records returns one configuration's
// live records in deterministic (file-hash) order.
func TestVotesRoundTripAndRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(hash, verdict, votes string) Record {
		rec := testRecord("panel/direct", hash, verdict)
		rec.Votes = votes
		return rec
	}
	want := []Record{
		mk("aaa", "valid", "majority m0=valid m1=valid m2=invalid"),
		mk("bbb", "invalid", "majority m0=invalid m1=error m2=invalid"),
	}
	// Interleave a record from another configuration; Records must
	// filter it out.
	other := testRecord("panel/direct", "ccc", "valid")
	other.Backend = "other-backend"
	for _, rec := range []Record{want[1], other, want[0]} {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Records("panel/direct", "deepseek-sim", 33)
	if len(got) != 2 {
		t.Fatalf("Records returned %d records, want 2", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v (sorted by hash)", i, got[i], want[i])
		}
	}
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	rec, ok := s2.Get(want[0].Key())
	if !ok || rec.Votes != want[0].Votes {
		t.Errorf("votes lost through Compact: %+v", rec)
	}
}

// TestLargeRecordRoundTrip: a record whose response exceeds
// bufio.Scanner's 64KiB default token cap (the old reader) must
// survive a round-trip — the reader has no line-length ceiling, so a
// stored multi-hundred-KiB transcript loads instead of silently
// failing the open or dropping as a "torn" line.
func TestLargeRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	big := testRecord("serve/completions", "bighash", "valid")
	big.Response = strings.Repeat("The quick brown fox jumps over the lazy dog. ", 8192) // ~360KiB
	small := testRecord("serve/completions", "smallhash", "invalid")
	for _, rec := range []Record{big, small} {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open failed on a >64KiB record: %v", err)
	}
	defer s2.Close()
	if s2.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 (large record must not read as torn)", s2.Dropped())
	}
	got, ok := s2.Get(big.Key())
	if !ok {
		t.Fatal("large record missing after reopen")
	}
	if got.Response != big.Response {
		t.Fatalf("large response truncated: got %d bytes, want %d", len(got.Response), len(big.Response))
	}
	if _, ok := s2.Get(small.Key()); !ok {
		t.Fatal("record after the large one lost")
	}
}

// TestWriteBehindFlush: appends are buffered (index-visible
// immediately, file-visible after Flush), and the flushed bytes are
// identical to the pre-write-behind format — one compact JSON object
// per line, in append order.
func TestWriteBehindFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := []Record{
		testRecord("p", "h1", "valid"),
		testRecord("p", "h2", "invalid"),
		testRecord("p", "h3", "valid"),
	}
	for _, rec := range recs {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (Put must index immediately)", s.Len())
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("file has %d bytes before Flush, want 0 (write-behind)", len(data))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if string(data) != want.String() {
		t.Fatalf("flushed bytes diverge from the per-record marshal format:\n got %q\nwant %q", data, want.String())
	}
	// Flush is idempotent and a reopen sees exactly the three records.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 || s2.Dropped() != 0 {
		t.Fatalf("reopen after Flush: Len=%d Dropped=%d, want 3/0", s2.Len(), s2.Dropped())
	}
}

// TestCompactDiscardsBufferedDuplicates: records still sitting in the
// write-behind buffer are sealed into Compact's segment; the re-armed
// writer must not append them to the active file again afterwards.
func TestCompactDiscardsBufferedDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("p", "h1", "valid")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	seg := compactedSegment(t, path, 1)
	// A post-compact append still works and lands once, in the active
	// file; the segment is untouched.
	if err := s.Put(testRecord("p", "h2", "invalid")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1 {
		t.Fatalf("active file has %d lines after compact+append, want 1:\n%s", lines, data)
	}
	if got, err := os.ReadFile(segFiles(t, path)[0]); err != nil || string(got) != string(seg) {
		t.Fatalf("append after compact changed the segment: %q (err %v), want %q", got, err, seg)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 || s2.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 2/0", s2.Len(), s2.Dropped())
	}
}

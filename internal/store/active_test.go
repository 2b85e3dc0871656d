package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestActiveIndexByteBudget: the active segment is indexed by where a
// key's line sits, under a fingerprint of the key, not by the decoded
// record or the key's strings, so the heap a store keeps per active key
// does not grow with the record. 10k records each carrying a distinct
// 300-byte Response must cost at most 96 bytes of retained heap apiece
// (map slot and the write buffer amortised); holding the records, or
// just their keys' 64-byte hashes, would cost several times that. The
// index's key and value types must hold no pointers, so the garbage
// collector never scans the map.
func TestActiveIndexByteBudget(t *testing.T) {
	const n, budget = 10000, 96
	s, err := Open(filepath.Join(t.TempDir(), "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	index := reflect.TypeOf(s.index)
	for _, typ := range []reflect.Type{index.Key(), index.Elem()} {
		if p := pointerPath(typ); p != "" {
			t.Errorf("index %s holds a pointer at %s", typ, p)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pad := strings.Repeat("r", 300)
	for i := 0; i < n; i++ {
		rec := testRecord("serve/completions", HashSource(fmt.Sprint(i)), "")
		rec.Response = fmt.Sprintf("%06d", i) + pad[6:]
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := s.Stats(); st.ActiveRecords != n || st.SegmentCount() != 0 {
		t.Fatalf("want %d active records and no seal, got %+v", n, st)
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("retained heap per active record: %d B", per)
	if per > budget {
		t.Fatalf("retained heap per active record = %d B, want <= %d", per, budget)
	}
	runtime.KeepAlive(s)
}

// pointerPath names where typ holds a pointer — a pointer, string,
// slice, map, channel, function or interface, however deeply nested in
// arrays and structs — or returns "" when it holds none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "." + p
			}
		}
		return ""
	}
	return typ.Kind().String()
}

// TestActiveReadsTailWithoutFlush: Get and Scan read records still in
// the write-behind buffer straight from it, without flushing, and a
// record the filled buffer already wrote out reads back from the file.
func TestActiveReadsTailWithoutFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := testRecord("p", "h0", "valid")
	big.Response = strings.Repeat("x", writeBufSize) // fills the buffer, which is written out
	small := testRecord("p", "h1", "invalid")
	for _, rec := range []Record{big, small} {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []Record{big, small} {
		if got, ok := s.Get(want.Key()); !ok || got != want {
			t.Fatalf("Get(%s) = %v, %v; want the record", want.FileHash, ok, got == want)
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(onDisk, []byte(`"h1"`)) {
		t.Fatal("Get flushed the write-behind buffer")
	}
	if recs := s.Records("p", "deepseek-sim", 33); len(recs) != 2 || recs[0] != big || recs[1] != small {
		t.Fatalf("Records = %d records, want both back in order", len(recs))
	}
	if st := s.Stats(); st.ReadErrors != 0 {
		t.Fatalf("ReadErrors = %d, want 0", st.ReadErrors)
	}
}

// TestLegacyFieldOrderReplayIsNoop: a line another writer encoded with
// its fields in another order indexes under the hash of its record's
// canonical encoding, so re-putting the record it holds appends
// nothing, a changed record still appends, and a seal writes the
// legacy line's record in the canonical encoding.
func TestLegacyFieldOrderReplayIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	legacy := `{"verdict":"valid","file_hash":"h1","seed":33,"backend":"deepseek-sim","experiment":"p","judge_ran":true,"valid":true,"name":"t_h1.c"}` + "\n" +
		`{ "experiment": "p", "backend": "deepseek-sim", "seed": 33, "file_hash": "h2", "name": "t_h2.c", "judge_ran": true, "verdict": "valid", "valid": true }` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h1, h2 := testRecord("p", "h1", "valid"), testRecord("p", "h2", "valid")
	for _, rec := range []Record{h1, h2} {
		if got, ok := s.Get(rec.Key()); !ok || got != rec {
			t.Fatalf("Get = %+v, %v; want %+v", got, ok, rec)
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.ActiveLines != 2 || st.ActiveBytes != int64(len(legacy)) {
		t.Fatalf("re-put of a legacy line's record appended: %+v", st)
	}
	h2.Verdict, h2.Valid = "invalid", false
	if err := s.Put(h2); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ActiveLines != 3 {
		t.Fatalf("changed record did not append: %+v", st)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range []Record{h1, h2} {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	if got := compactedSegment(t, path, 2); !bytes.Equal(got, want) {
		t.Fatalf("sealed segment:\n%s\nwant\n%s", got, want)
	}
}

// TestReadErrorsCountFailedLookups: a lookup whose read fails — a sealed
// segment or the active file cut short under an open store — answers
// absent and counts in Stats.ReadErrors, instead of passing for a miss.
func TestReadErrorsCountFailedLookups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := OpenWith(path, sealEvery)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := []Record{mkrec("judge", "b", 1, "h000", "valid"), mkrec("judge", "b", 1, "h001", "valid")}
	for _, rec := range recs {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(segPath(path, 2), 10); err != nil { // h001's segment
		t.Fatal(err)
	}
	if _, ok := s.Get(recs[1].Key()); ok {
		t.Fatal("Get answered from a truncated segment")
	}
	if s.Has(recs[1].Key()) {
		t.Fatal("Has answered from a truncated segment")
	}
	if got := s.Stats().ReadErrors; got != 2 {
		t.Fatalf("ReadErrors = %d after two failed lookups, want 2", got)
	}
	if _, ok := s.Get(recs[0].Key()); !ok {
		t.Fatal("Get missed a record in an intact segment")
	}
	if _, ok := s.Get(mkrec("judge", "b", 1, "h999", "valid").Key()); ok {
		t.Fatal("Get found a key never put")
	}
	if got := s.Stats().ReadErrors; got != 2 {
		t.Fatalf("ReadErrors = %d after clean lookups, want still 2", got)
	}

	// The active file: flush a line, then cut it.
	active := filepath.Join(t.TempDir(), "active.jsonl")
	a, err := Open(active)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get(recs[0].Key()); ok {
		t.Fatal("Get answered from a truncated active file")
	}
	if got := a.Stats().ReadErrors; got != 1 {
		t.Fatalf("ReadErrors = %d after a failed active read, want 1", got)
	}
}

// storeDigest hashes the store's files — the active file, then each
// sealed segment in name order — into one hex digest.
func storeDigest(t *testing.T, path string) string {
	t.Helper()
	h := sha256.New()
	files := append([]string{path}, segFiles(t, path)...)
	sort.Strings(files[1:])
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreBytesPinned pins the bytes a fixed Put sequence leaves on
// disk — the active file and every sealed segment, before and after
// Compact. Overwrites, identical replays, panel votes, completion
// records larger than the write buffer and seals are all in the
// sequence. The digests were computed with the store's earlier
// record-keyed active index, so they hold the on-disk format to what
// that index wrote.
func TestStoreBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := OpenWith(path, Options{SealBytes: 4096, MergeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		rec := mkrec(fmt.Sprintf("exp%d", i%3), "b", uint64(i%2), fmt.Sprintf("h%03d", i%37), []string{"valid", "invalid"}[i/150])
		switch i % 7 {
		case 1:
			rec.Votes = fmt.Sprintf("majority m0=valid m1=%s", rec.Verdict)
		case 2:
			rec.Response = strings.Repeat(fmt.Sprint(i%10), 40*(i%5))
		case 3:
			rec.Unix = int64(1700000000 + i)
		}
		if i%50 == 49 {
			rec.Response = strings.Repeat("<&>", writeBufSize/3+i)
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(rec); err != nil { // an identical replay appends nothing
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const wantWritten = "9e29cfba15fe785d2d918842bdb116467861953af2bee10cb588f3a4201e29d5"
	const wantCompacted = "35416e514005539ae32b5f58f8721e3db0e2b2799ba97095fc2246088ac2c3e6"
	if n := len(segFiles(t, path)); n < 10 {
		t.Fatalf("the sequence sealed %d segments, want at least 10", n)
	}
	if got := storeDigest(t, path); got != wantWritten {
		t.Errorf("written store digest %s, want %s", got, wantWritten)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := storeDigest(t, path); got != wantCompacted {
		t.Errorf("compacted store digest %s, want %s", got, wantCompacted)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenActive: arbitrary bytes as the active file. Open never panics
// or fails; every key it indexes reads back as a record that decodes
// (through Scan and Get alike, with no read errors); and re-putting
// that record is a no-op, whatever field order or spacing its line had.
// The checked-in seeds (testdata/fuzz/FuzzOpenActive) hold a torn tail,
// reordered fields, duplicate keys and garbage; a 1 MiB line is added
// here rather than checked in.
func FuzzOpenActive(f *testing.F) {
	big := testRecord("p", "h-big", "valid")
	big.Response = strings.Repeat("a", 1<<20)
	line, err := json.Marshal(big)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(line, '\n'))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		var recs []Record
		if err := s.Scan(Filter{}, func(rec Record) bool {
			recs = append(recs, rec)
			return true
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(recs) != s.Len() {
			t.Fatalf("Scan yielded %d records, Len = %d", len(recs), s.Len())
		}
		before := s.Stats()
		for _, rec := range recs {
			got, ok := s.Get(rec.Key())
			if !ok || got != rec {
				t.Fatalf("Get(%+v) = %v, %+v; Scan gave %+v", rec.Key(), ok, got, rec)
			}
			if err := s.Put(got); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
		}
		after := s.Stats()
		if after.ActiveLines != before.ActiveLines || after.ActiveBytes != before.ActiveBytes {
			t.Fatalf("re-putting stored records appended: %+v -> %+v", before, after)
		}
		if after.ReadErrors != 0 {
			t.Fatalf("ReadErrors = %d", after.ReadErrors)
		}
	})
}

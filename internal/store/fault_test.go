package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

// opHook builds a FaultHook failing the named ops after skip clean
// calls, mimicking a disk that degrades mid-run.
func opHook(fail string, skip int) func(op string) error {
	n := 0
	return func(op string) error {
		if op != fail {
			return nil
		}
		n++
		if n <= skip {
			return nil
		}
		return fmt.Errorf("%w: %s", fault.ErrInjected, op)
	}
}

func TestFaultWritePoisonsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, Options{MergeThreshold: -1, FaultHook: opHook("write", 2)})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h001", "valid")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h002", "valid")); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	err = s.Put(mkrec("judge", "b", 1, "h003", "valid"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put 3 = %v, want injected failure", err)
	}
	// The store is poisoned: every later write-path call returns the
	// remembered error, including Close.
	if err := s.Put(mkrec("judge", "b", 1, "h004", "valid")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put after poison = %v, want injected failure", err)
	}
	if err := s.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Flush after poison = %v, want injected failure", err)
	}
	if err := s.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close after poison = %v, want injected failure", err)
	}
}

func TestFaultFlushSurfacesOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "st.jsonl")
	// Two puts draw the first two "write" checks; the third — Close's
	// final flush — fails, and Close must surface it.
	s, err := OpenWith(path, Options{MergeThreshold: -1, FaultHook: opHook("write", 2)})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h001", "valid")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h002", "valid")); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	if err := s.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close = %v, want injected flush failure", err)
	}
}

func TestFaultSealFailurePoisons(t *testing.T) {
	for _, op := range []string{"sync", "rename"} {
		t.Run(op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "st.jsonl")
			s, err := OpenWith(path, Options{SealBytes: 1, MergeThreshold: -1, FaultHook: opHook(op, 0)})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			err = s.Put(mkrec("judge", "b", 1, "h001", "valid"))
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("put (seals) = %v, want injected failure", err)
			}
			if !strings.Contains(err.Error(), "seal") {
				t.Fatalf("put error %q does not mention the seal", err)
			}
			// The failed seal must not leave a published segment behind.
			if segs := segFiles(t, path); len(segs) != 0 {
				t.Fatalf("failed seal published segments: %v", segs)
			}
			if err := s.Close(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Close = %v, want remembered injected failure", err)
			}
		})
	}
}

func TestFaultCompactFailsCleanly(t *testing.T) {
	for _, op := range []string{"sync", "rename", "write"} {
		t.Run(op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "st.jsonl")
			// The hook is armed only after the puts, so the failure lands
			// on Compact's own segment write, not on an append.
			armed := false
			failOp := opHook(op, 0)
			hook := func(o string) error {
				if !armed {
					return nil
				}
				return failOp(o)
			}
			s, err := OpenWith(path, Options{MergeThreshold: -1, FaultHook: hook})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Close()
			for i := 0; i < 5; i++ {
				if err := s.Put(mkrec("judge", "b", 1, fmt.Sprintf("h%03d", i), "valid")); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			armed = true
			if _, err := s.Compact(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Compact = %v, want injected failure", err)
			}
			// A failed compact must leave the store readable: no segment
			// is published, the active file is still in place, and
			// lookups still answer.
			if segs := segFiles(t, path); len(segs) != 0 {
				t.Fatalf("failed compact left segment files: %v", segs)
			}
			if s.Len() != 5 {
				t.Fatalf("Len after failed compact = %d, want 5", s.Len())
			}
			if _, ok := s.Get(Key{Experiment: "judge", Backend: "b", Seed: 1, FileHash: "h002"}); !ok {
				t.Fatalf("Get after failed compact missed a live record")
			}
			// Once the disk recovers, a retry compacts normally.
			armed = false
			if _, err := s.Compact(); err != nil {
				t.Fatalf("Compact retry: %v", err)
			}
			compactedSegment(t, path, 5)
		})
	}
}

// TestFaultHookFromInjector wires a seeded fault.Injector through
// fault.Hook — the exact composition the daemon's -fault flag uses —
// and checks the store fails on the scheduled operation.
func TestFaultHookFromInjector(t *testing.T) {
	inj := fault.New(42, &fault.Rule{Point: "store.write", Kind: fault.Err, Every: 3})
	path := filepath.Join(t.TempDir(), "st.jsonl")
	s, err := OpenWith(path, Options{MergeThreshold: -1, FaultHook: fault.Hook(inj, "store")})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h001", "valid")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h002", "valid")); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	if err := s.Put(mkrec("judge", "b", 1, "h003", "valid")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put 3 = %v, want injected failure (every 3rd write)", err)
	}
	if got := inj.InjectedTotal(); got != 1 {
		t.Fatalf("InjectedTotal = %d, want 1", got)
	}
}

// TestFaultEachOpReopensWithFlushedRecords fails each operation the
// FaultHook names — after letting its first call through — under a
// workload of puts, overwrites, flushes, seals, background merges and a
// Compact, then reopens the store without faults. Every record whose
// Flush returned before the failure must be there, holding its flushed
// value or a value put after it (a later write may or may not have
// reached the disk), and no key that was never put may appear.
func TestFaultEachOpReopensWithFlushedRecords(t *testing.T) {
	for _, op := range []string{"write", "sync", "rename", "dirsync", "truncate", "remove"} {
		t.Run(op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "st.jsonl")
			// Background merges consult the hook off the store's lock.
			var mu sync.Mutex
			calls := 0
			failOp := opHook(op, 1)
			hook := func(o string) error {
				mu.Lock()
				defer mu.Unlock()
				if o == op {
					calls++
				}
				return failOp(o)
			}
			s, err := OpenWith(path, Options{SealBytes: 1024, MergeThreshold: 2, FaultHook: hook})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			allowed := map[Key][]Record{} // flushed value, then later puts
			var pending []Record
			for i := 0; i < 120; i++ {
				rec := mkrec("judge", "b", 1, fmt.Sprintf("h%03d", i%40), []string{"valid", "invalid", "unsure"}[i/40])
				if err := s.Put(rec); err != nil {
					break
				}
				if vals, ok := allowed[rec.Key()]; ok {
					allowed[rec.Key()] = append(vals, rec)
				}
				pending = append(pending, rec)
				if i%10 == 9 {
					if err := s.Flush(); err != nil {
						break
					}
					for _, p := range pending {
						allowed[p.Key()] = []Record{p}
					}
					pending = pending[:0]
				}
			}
			s.Compact() // may fail on the injected op; the store must still reopen
			s.Close()
			mu.Lock()
			defer mu.Unlock()
			if calls < 2 {
				t.Fatalf("the workload reached %q %d times; the fault never fired", op, calls)
			}

			r, err := Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			for k, vals := range allowed {
				got, ok := r.Get(k)
				if !ok {
					t.Fatalf("flushed record %s lost", k.FileHash)
				}
				found := false
				for _, v := range vals {
					found = found || got == v
				}
				if !found {
					t.Fatalf("record %s reopened as %q, never flushed or put after its flush", k.FileHash, got.Verdict)
				}
			}
			n := 0
			if err := r.Scan(Filter{}, func(rec Record) bool {
				n++
				if rec.Experiment != "judge" || rec.Backend != "b" || rec.Seed != 1 {
					t.Errorf("reopened store holds a record never put: %+v", rec.Key())
				}
				return true
			}); err != nil {
				t.Fatalf("scan: %v", err)
			}
			if n != r.Len() || n < len(allowed) {
				t.Fatalf("Scan yields %d records, Len = %d, flushed keys = %d", n, r.Len(), len(allowed))
			}
		})
	}
}

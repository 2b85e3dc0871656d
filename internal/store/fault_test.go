package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
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

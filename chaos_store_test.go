package llm4vv

// Store-failure degradation: a sweep whose run store starts failing
// writes mid-run must complete store-less — one logged warning, the
// same report a store-less run produces, and the write failure
// surfaced by Runner.Close.

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/spec"
	"repro/internal/store"
)

// TestChaosStoreWriteFaultSweepCompletesStoreless is the store leg of
// the chaos suite: deterministic write faults poison the run store
// mid-sweep, the sweep keeps going without it, and the report is
// byte-identical to a run that never had a store.
func TestChaosStoreWriteFaultSweepCompletesStoreless(t *testing.T) {
	params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 8}

	noStore := newTestRunner(t)
	want, err := RunExperiment(context.Background(), noStore, "part1", params)
	if err != nil {
		t.Fatal(err)
	}

	inj := fault.New(7, &fault.Rule{Point: "store.write", Kind: fault.Err, Every: 5})
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	r, err := NewRunner(
		WithStore(filepath.Join(t.TempDir(), "chaos.jsonl")),
		WithStoreOptions(store.Options{FaultHook: fault.Hook(inj, "store")}),
		WithLogger(logger),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunExperiment(context.Background(), r, "part1", params)
	if err != nil {
		t.Fatalf("sweep failed on store write fault (must degrade, not abort): %v", err)
	}
	if want.Report() != got.Report() {
		t.Errorf("report diverged after store degradation:\n--- store-less ---\n%s\n--- degraded ---\n%s",
			want.Report(), got.Report())
	}
	if !r.StoreDegraded() {
		t.Fatal("store writes failed but the Runner never degraded")
	}
	if err := r.StoreErr(); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("StoreErr = %v, want the injected write failure", err)
	}
	if !strings.Contains(logs.String(), "store-less") {
		t.Errorf("degradation warning not logged; log output:\n%s", logs.String())
	}
	if strings.Count(logs.String(), "store-less") != 1 {
		t.Errorf("degradation warning logged more than once:\n%s", logs.String())
	}
	if err := r.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Runner.Close = %v, want the remembered injected write failure", err)
	}
	if inj.InjectedTotal() == 0 {
		t.Error("no store faults fired; the leg tested nothing")
	}
}

// TestChaosStoreHealthSharedAcrossBackendCopies: withBackend copies a
// Runner by value (the compare scenario), so the degradation latch
// must be shared — a failure seen through one copy stops the others'
// writes and surfaces from the original's Close.
func TestChaosStoreHealthSharedAcrossBackendCopies(t *testing.T) {
	inj := fault.New(3, &fault.Rule{Point: "store.write", Kind: fault.Err, Every: 1})
	r, err := NewRunner(
		WithStore(filepath.Join(t.TempDir(), "copies.jsonl")),
		WithStoreOptions(store.Options{FaultHook: fault.Hook(inj, "store")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.withBackend(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	r2.putRecord(store.Record{Experiment: "chaos", Backend: "b", Seed: 1, FileHash: "h1", JudgeRan: true})
	if !r.StoreDegraded() {
		t.Fatal("degradation through a backend copy not visible on the original")
	}
	if err := r.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Close = %v, want the copy's injected write failure", err)
	}
}

package llm4vv

// Tests for the evaluation-at-scale layer: scheduling parity across
// worker counts and judge batch sizes, batched judging through
// BatchLLM, and the persistent run store's checkpoint and resume
// semantics — including the headline contract that an interrupted
// stored run, resumed, re-judges zero completed files and reproduces
// the metrics of an uninterrupted run exactly.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/testlang"
)

// countingLLM wraps the simulated model, counting every prompt that
// reaches the endpoint (single or batched path) — the probe for
// "resume re-judges zero completed files". Registering it without
// CompleteBatch would hide the batch path, so it forwards both.
type countingLLM struct {
	inner *model.Model
	n     atomic.Int64
}

func (c *countingLLM) Complete(prompt string) string {
	c.n.Add(1)
	return c.inner.Complete(prompt)
}

func (c *countingLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	c.n.Add(int64(len(prompts)))
	return c.inner.CompleteBatch(ctx, prompts)
}

// registerCounting registers a fresh counting backend under a unique
// name (the registry forbids re-registration) and returns the counter.
var countingSerial atomic.Int64

func registerCounting(t *testing.T) (string, *countingLLM) {
	t.Helper()
	c := &countingLLM{}
	name := fmt.Sprintf("test-counting-%d", countingSerial.Add(1))
	RegisterBackend(name, func(seed uint64) judge.LLM {
		c.inner = model.New(seed)
		return c
	})
	return name, c
}

// TestShardedSchedulerParity: the sharded work-stealing scheduler must
// produce results identical to flat per-file scheduling (PR 1's
// parallelFor granularity: shard size 1) for the same seed, across
// worker counts and shard sizes — sharding changes scheduling, never
// results.
func TestShardedSchedulerParity(t *testing.T) {
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)
	type cfg struct {
		workers, shard int
	}
	configs := []cfg{{1, 1}, {1, 0}, {4, 1}, {4, 3}, {8, 0}, {2, 1000}}
	var ref Summary0
	for i, c := range configs {
		r, err := NewRunner(WithWorkers(c.workers), WithShardSize(c.shard))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := r.DirectProbing(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		got := Summary0{sum.Accuracy(), sum.Bias(), sum.Total, sum.Mistakes}
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("workers=%d shard=%d diverged: %+v vs %+v", c.workers, c.shard, got, ref)
		}
	}
	// Pipeline path: per-file verdicts must match across shard sizes.
	base, _, err := mustRunner(t, WithWorkers(1), WithShardSize(1)).ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	sharded, stats, err := mustRunner(t, WithWorkers(4), WithShardSize(5)).ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i].Valid != sharded[i].Valid || base[i].Verdict != sharded[i].Verdict {
			t.Errorf("file %d (%s): flat valid=%v/%v sharded valid=%v/%v",
				i, base[i].Name, base[i].Valid, base[i].Verdict, sharded[i].Valid, sharded[i].Verdict)
		}
	}
	if stats.JudgeBatches > stats.JudgeCalls {
		t.Errorf("stats: batches %d > calls %d", stats.JudgeBatches, stats.JudgeCalls)
	}
}

// Summary0 is the comparable core of a metrics summary.
type Summary0 struct {
	Acc      float64
	Bias     float64
	Total    int
	Mistakes int
}

func mustRunner(t testing.TB, opts ...Option) *Runner {
	t.Helper()
	r, err := NewRunner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBatchedJudgingParity: the simulated backend implements BatchLLM,
// and batched submission must not change a single verdict relative to
// an endpoint that can only complete one prompt at a time.
func TestBatchedJudgingParity(t *testing.T) {
	// A view of the model stripped down to the bare LLM contract.
	RegisterBackend("test-no-batch", func(seed uint64) judge.LLM {
		return singleOnlyLLM{model.New(seed)}
	})
	s := smallSpec()
	batched, err := mustRunner(t, WithShardSize(4)).DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	single, err := mustRunner(t, WithBackend("test-no-batch"), WithShardSize(4)).DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched, single) {
		t.Errorf("batched and single-prompt judging diverged:\n batched %+v\n single  %+v", batched, single)
	}
}

type singleOnlyLLM struct{ m *model.Model }

func (s singleOnlyLLM) Complete(prompt string) string { return s.m.Complete(prompt) }

// TestResumeSkipsCompletedFiles: a store-backed run followed by a
// resumed run under the same configuration re-judges nothing; a
// resumed run under a different seed shares nothing.
func TestResumeSkipsCompletedFiles(t *testing.T) {
	name, c := registerCounting(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s := smallSpec()

	first := mustRunner(t, WithBackend(name), WithStore(path), WithShardSize(3))
	sum1, err := first.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	judged := c.n.Load()
	if judged != int64(s.Total()) {
		t.Fatalf("first run judged %d files, want %d", judged, s.Total())
	}

	resumed := mustRunner(t, WithBackend(name), WithStore(path), WithResume(true), WithShardSize(3))
	sum2, err := resumed.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.n.Load() - judged; got != 0 {
		t.Errorf("resumed run re-judged %d completed files, want 0", got)
	}
	if !reflect.DeepEqual(sum1, sum2) {
		t.Errorf("resumed metrics diverged from original:\n %+v\n %+v", sum1, sum2)
	}

	// A different seed is a different key: nothing is shared.
	other := mustRunner(t, WithBackend(name), WithSeed(DefaultModelSeed+1), WithStore(path), WithResume(true))
	if _, err := other.DirectProbing(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.n.Load() - judged; got != int64(s.Total()) {
		t.Errorf("different-seed resume judged %d files, want %d (no sharing across seeds)", got, s.Total())
	}
}

// TestInterruptedRunResumesExactly is the acceptance-criteria test:
// cancel a stored run mid-flight, resume it, and require (a) zero
// stored files re-judged and (b) metrics byte-identical to a run that
// was never interrupted.
func TestInterruptedRunResumesExactly(t *testing.T) {
	name, c := registerCounting(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)

	// Uninterrupted reference, store-less.
	ref, err := mustRunner(t, WithBackend(name), WithShardSize(2)).DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	c.n.Store(0)

	// Interrupted stored run: cancel after the first few files seal.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	interrupted := mustRunner(t,
		WithBackend(name), WithStore(path), WithShardSize(2), WithWorkers(2),
		WithProgress(func(p Progress) {
			if p.Done >= 3 {
				once.Do(cancel)
			}
		}))
	if _, err := interrupted.DirectProbing(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if err := interrupted.Close(); err != nil {
		t.Fatal(err)
	}

	stored := storedCount(t, path)
	if stored == 0 || stored >= s.Total() {
		t.Fatalf("interruption stored %d of %d files; the test needs a partial run", stored, s.Total())
	}
	c.n.Store(0)

	// Resume and finish.
	resumed := mustRunner(t, WithBackend(name), WithStore(path), WithResume(true), WithShardSize(2), WithWorkers(2))
	got, err := resumed.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if rejudged := int(c.n.Load()) - (s.Total() - stored); rejudged != 0 {
		t.Errorf("resumed run re-judged %d already-completed files, want 0 (judged %d, missing %d)",
			rejudged, c.n.Load(), s.Total()-stored)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("resumed metrics differ from uninterrupted run:\n resumed %+v\n ref     %+v", got, ref)
	}
}

// blockingLLM answers like the simulated model but holds its third
// batch call until release closes, signalling blocked on entry — the
// probe for what a run has checkpointed while a batch is in flight.
type blockingLLM struct {
	inner   *model.Model
	calls   atomic.Int64
	blocked chan struct{}
	release chan struct{}
}

func (b *blockingLLM) Complete(prompt string) string { return b.inner.Complete(prompt) }

func (b *blockingLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	if b.calls.Add(1) == 3 {
		close(b.blocked)
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.CompleteBatch(ctx, prompts)
}

// TestCheckpointPerJudgeBatch: a stored run flushes its records after
// every judge batch, not only at phase end — while the endpoint holds
// the third batch, the first two batches' records are already on
// disk. Checked for a direct-judging phase and a pipeline phase.
func TestCheckpointPerJudgeBatch(t *testing.T) {
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)
	phases := map[string]func(r *Runner) error{
		"direct-probing": func(r *Runner) error {
			_, err := r.DirectProbing(context.Background(), s)
			return err
		},
		"validate-suite": func(r *Runner) error {
			_, _, err := r.ValidateSuite(context.Background(), s, judge.AgentDirect)
			return err
		},
	}
	for phase, run := range phases {
		t.Run(phase, func(t *testing.T) {
			b := &blockingLLM{blocked: make(chan struct{}), release: make(chan struct{})}
			name := fmt.Sprintf("test-blocking-%d", countingSerial.Add(1))
			RegisterBackend(name, func(seed uint64) judge.LLM {
				b.inner = model.New(seed)
				return b
			})
			path := filepath.Join(t.TempDir(), "run.jsonl")
			r := mustRunner(t, WithBackend(name), WithStore(path), WithWorkers(1), WithShardSize(2))
			var release sync.Once
			defer release.Do(func() { close(b.release) })
			done := make(chan error, 1)
			go func() { done <- run(r) }()

			select {
			case <-b.blocked:
			case err := <-done:
				t.Fatalf("run finished (err %v) without a third endpoint batch", err)
			case <-time.After(10 * time.Second):
				t.Fatal("endpoint never received a third batch")
			}
			// The second batch's checkpoint may still be landing on
			// another stage's worker; give it a moment, not a phase.
			lines := 0
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if lines = bytes.Count(data, []byte("\n")); lines >= 2 {
					break
				}
			}
			if lines < 2 {
				t.Errorf("%d complete lines on disk while the third batch is in flight, want >= 2 (a checkpoint per judge batch)", lines)
			}
			release.Do(func() { close(b.release) })
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// storedCount reopens a store file and counts its records.
func storedCount(t *testing.T, path string) int {
	t.Helper()
	r := mustRunner(t, WithStore(path), WithResume(true))
	defer r.Close()
	return r.store.Len()
}

// TestValidateSuiteResume: the pipeline path reconstructs stage flags
// and verdicts from the store — a fully resumed run touches the
// endpoint zero times and reproduces every per-file result.
func TestValidateSuiteResume(t *testing.T) {
	name, c := registerCounting(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)

	first := mustRunner(t, WithBackend(name), WithStore(path), WithRecordAll(true))
	res1, _, err := first.ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	c.n.Store(0)

	resumed := mustRunner(t, WithBackend(name), WithStore(path), WithResume(true), WithRecordAll(true))
	res2, stats, err := resumed.ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if c.n.Load() != 0 {
		t.Errorf("fully-stored resume still judged %d files", c.n.Load())
	}
	if stats.Compiles != 0 || stats.Executions != 0 || stats.JudgeCalls != 0 {
		t.Errorf("fully-stored resume redid work: %+v", stats)
	}
	if len(res1) != len(res2) {
		t.Fatalf("result lengths differ: %d vs %d", len(res1), len(res2))
	}
	for i := range res1 {
		a, b := res1[i], res2[i]
		if a.Valid != b.Valid || a.Verdict != b.Verdict || a.CompileOK != b.CompileOK ||
			a.ExecRan != b.ExecRan || a.ExecOK != b.ExecOK || a.JudgeRan != b.JudgeRan {
			t.Errorf("file %d (%s): live %+v vs resumed %+v", i, a.Name, a, b)
		}
	}

	// Record-all and short-circuit records never mix: a short-circuit
	// resume of the same suite finds no usable records for files whose
	// stage coverage differs, rather than silently reusing them.
	c.n.Store(0)
	shortR := mustRunner(t, WithBackend(name), WithStore(path), WithResume(true), WithRecordAll(false))
	if _, _, err := shortR.ValidateSuite(context.Background(), s, judge.AgentDirect); err != nil {
		t.Fatal(err)
	}
	if err := shortR.Close(); err != nil {
		t.Fatal(err)
	}
	if c.n.Load() == 0 {
		t.Error("short-circuit resume reused record-all records (keys must differ)")
	}
}

// TestMigratedStoreResumesExactly: a store written before the
// segmented-log redesign (a single append-only JSONL file — exactly
// what a default-threshold run produces at this size) reopened under
// aggressive segmentation must seal into segments on open and then
// serve a resumed run with zero re-judges and identical metrics. This
// is the migration half of the PR's parity contract.
func TestMigratedStoreResumesExactly(t *testing.T) {
	name, c := registerCounting(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s := smallSpec(testlang.LangC, testlang.LangCPP)

	// Phase 1: the "pre-PR" store — one flat JSONL file, no segments.
	first := mustRunner(t, WithBackend(name), WithStore(path), WithShardSize(3))
	sum1, err := first.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	judged := c.n.Load()

	// Phase 2: reopen with a 1-byte seal threshold. Open must migrate
	// the flat file into sealed segments without losing a record.
	resumed := mustRunner(t, WithBackend(name), WithStore(path), WithResume(true),
		WithStoreOptions(store.Options{SealBytes: 1, MergeThreshold: -1}), WithShardSize(3))
	sum2, err := resumed.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	segs := resumed.store.Stats().SegmentCount()
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if segs == 0 {
		t.Fatal("migration did not seal the flat store into segments; the test is vacuous")
	}
	if got := c.n.Load() - judged; got != 0 {
		t.Errorf("resume against migrated store re-judged %d files, want 0", got)
	}
	if !reflect.DeepEqual(sum1, sum2) {
		t.Errorf("migrated-store resume diverged:\n flat      %+v\n segmented %+v", sum1, sum2)
	}

	// Phase 3: a default Open must read the now-segmented store too —
	// migration is not one-way.
	again := mustRunner(t, WithBackend(name), WithStore(path), WithResume(true), WithShardSize(3))
	sum3, err := again.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.n.Load() - judged; got != 0 {
		t.Errorf("default reopen of segmented store re-judged %d files, want 0", got)
	}
	if !reflect.DeepEqual(sum1, sum3) {
		t.Errorf("segmented store read back by default options diverged:\n %+v\n %+v", sum1, sum3)
	}
}

// TestFreshSegmentedStoreParity: a run recording into an aggressively
// segmented store from the start (sealing constantly, merging in the
// background) must produce metrics identical to a store-less run, and
// resuming from that store must re-judge nothing — segmentation
// changes the layout on disk, never the results.
func TestFreshSegmentedStoreParity(t *testing.T) {
	name, c := registerCounting(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s := smallSpec(testlang.LangC, testlang.LangFortran)

	ref, err := mustRunner(t, WithBackend(name), WithShardSize(2)).DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	c.n.Store(0)

	opts := store.Options{SealBytes: 1, MergeThreshold: 2}
	segged := mustRunner(t, WithBackend(name), WithStore(path), WithStoreOptions(opts),
		WithShardSize(2), WithWorkers(2))
	got, err := segged.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := segged.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("segmented-store run diverged from store-less run:\n segmented %+v\n ref       %+v", got, ref)
	}
	if c.n.Load() != int64(s.Total()) {
		t.Fatalf("segmented run judged %d files, want %d", c.n.Load(), s.Total())
	}
	c.n.Store(0)

	resumed := mustRunner(t, WithBackend(name), WithStore(path), WithStoreOptions(opts),
		WithResume(true), WithShardSize(2), WithWorkers(2))
	sum2, err := resumed.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if c.n.Load() != 0 {
		t.Errorf("resume from segmented store re-judged %d files, want 0", c.n.Load())
	}
	if !reflect.DeepEqual(sum2, ref) {
		t.Errorf("segmented-store resume diverged from store-less run:\n %+v\n %+v", sum2, ref)
	}

	// Compact folds the store into one sealed segment; a run resumed
	// from it still re-judges nothing and reports identically.
	st, err := store.OpenWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().SegmentCount(); n != 1 {
		t.Fatalf("compacted store has %d segments, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c.n.Store(0)
	compacted := mustRunner(t, WithBackend(name), WithStore(path), WithStoreOptions(opts),
		WithResume(true), WithShardSize(2), WithWorkers(2))
	sum3, err := compacted.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.Close(); err != nil {
		t.Fatal(err)
	}
	if c.n.Load() != 0 {
		t.Errorf("resume from compacted store re-judged %d files, want 0", c.n.Load())
	}
	if !reflect.DeepEqual(sum3, ref) {
		t.Errorf("compacted-store resume diverged from store-less run:\n %+v\n %+v", sum3, ref)
	}
}

// TestCompareScenario: the cross-backend sweep covers every registered
// backend and dispatches through the generic experiment path.
func TestCompareScenario(t *testing.T) {
	r := mustRunner(t)
	res, err := RunExperiment(context.Background(), r, "compare",
		ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := res.(*CompareScenarioResult)
	if !ok {
		t.Fatalf("compare returned %T", res)
	}
	if len(cmp.Backends) != len(Backends()) {
		t.Errorf("compare covered %d backends, registry has %d", len(cmp.Backends), len(Backends()))
	}
	found := false
	for _, b := range cmp.Backends {
		if b == DefaultBackend {
			found = true
			sum := cmp.Summaries[b][spec.OpenACC]
			if sum.Total == 0 {
				t.Errorf("default backend judged zero files")
			}
		}
	}
	if !found {
		t.Error("compare skipped the default backend")
	}
	if !strings.Contains(res.Report(), DefaultBackend) {
		t.Errorf("compare report lacks backend name:\n%s", res.Report())
	}
}

package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// noopStage builds a trivially-succeeding stage for chain-shape tests.
func noopStage(name string, workers int) StageFunc {
	return StageFunc{
		StageSpec: StageSpec{Name: name, Workers: workers},
		RunFunc:   func(context.Context, []*Item) error { return nil },
	}
}

// fileInputs names n synthetic inputs f000.c, f001.c, ...
func fileInputs(n int) []Input {
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("f%03d.c", i)}
	}
	return inputs
}

func TestGraphConstructionErrors(t *testing.T) {
	cases := []struct {
		name   string
		stages []StageFunc
		want   string
	}{
		{"empty chain", nil, "at least one stage"},
		{"duplicate stage name", []StageFunc{noopStage("a", 1), noopStage("b", 1), noopStage("a", 1)}, "duplicate stage"},
		{"empty stage name", []StageFunc{noopStage("", 1)}, "empty name"},
		{"negative workers", []StageFunc{noopStage("a", -1)}, "negative Workers"},
		{"negative batch", []StageFunc{{
			StageSpec: StageSpec{Name: "a", Batch: -2},
			RunFunc:   func(context.Context, []*Item) error { return nil },
		}}, "negative Batch"},
	}
	for _, tc := range cases {
		_, _, err := RunChain(context.Background(), Config{}, tc.stages, fileInputs(2))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestNegativeWorkersErrorFromRun pins the satellite fix: negative
// worker counts used to silently spin zero workers and hang the
// stage; now Run rejects them before any file moves (0 still means 1).
func TestNegativeWorkersErrorFromRun(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 4)
	for _, cfg := range []Config{
		{Stages: []StageSpec{{Name: StageCompile, Workers: -1}}},
		{Stages: []StageSpec{{Name: StageExec, Workers: -3}}},
		{Stages: []StageSpec{{Name: StageJudge, Workers: -2}}},
		{Stages: []StageSpec{{Name: StageExec, Workers: -4}}},
		{Stages: []StageSpec{{Name: StageJudge, Batch: -16}}},
	} {
		cfg.Tools = acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false).Tools
		cfg.Judge = acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false).Judge
		if _, _, err := Run(context.Background(), cfg, inputs); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("cfg %+v: err=%v, want negative-value rejection", cfg, err)
		}
	}
	// Zero stays the documented one-worker floor.
	cfg := acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false)
	cfg.Stages = []StageSpec{{Name: StageCompile}, {Name: StageExec}, {Name: StageJudge}}
	if _, _, err := Run(context.Background(), cfg, inputs); err != nil {
		t.Fatalf("zero workers must mean one, got error %v", err)
	}
}

func TestConfigStagesValidation(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 2)
	base := acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false)

	cfg := base
	cfg.Stages = []StageSpec{{Name: "lint", Workers: 2}}
	if _, _, err := Run(context.Background(), cfg, inputs); err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Errorf("unknown stage name: err=%v", err)
	}
	cfg = base
	cfg.Stages = []StageSpec{{Name: StageJudge, Workers: 2}, {Name: StageJudge, Workers: 3}}
	if _, _, err := Run(context.Background(), cfg, inputs); err == nil || !strings.Contains(err.Error(), "duplicate stage") {
		t.Errorf("duplicate stage spec: err=%v", err)
	}
	cfg = base
	cfg.Judge = nil
	if _, _, err := Run(context.Background(), cfg, inputs); err == nil || !strings.Contains(err.Error(), "needs a Judge") {
		t.Errorf("nil judge: err=%v", err)
	}
}

// TestMergeStages pins the one field-wise override rule behind
// Config.Stages and the Runner's WithStages: non-zero fields win, zero
// fields inherit, a later override refines an earlier one, and an
// unseen name is appended. The base slice is left untouched.
func TestMergeStages(t *testing.T) {
	var observed string
	observe := func(stage string, _ time.Duration) { observed = stage }
	base := []StageSpec{{Name: StageCompile, Workers: 2}, {Name: StageJudge, Workers: 2, Batch: 8}}
	got := MergeStages(base,
		StageSpec{Name: StageJudge, Workers: 5},
		StageSpec{Name: StageJudge, Batch: 3, Observe: observe},
		StageSpec{Name: StageExec, Workers: 7},
	)
	want := []StageSpec{{Name: StageCompile, Workers: 2}, {Name: StageJudge, Workers: 5, Batch: 3}, {Name: StageExec, Workers: 7}}
	if len(got) != len(want) {
		t.Fatalf("merged %d specs, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Workers != want[i].Workers || got[i].Batch != want[i].Batch {
			t.Errorf("spec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Observe == nil || got[0].Observe != nil {
		t.Fatal("Observe must move onto the judge spec only")
	}
	got[1].Observe(StageJudge, 0)
	if observed != StageJudge {
		t.Errorf("merged Observe not the override's")
	}
	if base[1].Workers != 2 || base[1].Batch != 8 {
		t.Errorf("MergeStages modified its base: %+v", base[1])
	}
}

func TestParseStageWorkers(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []StageSpec
		wantErr string
	}{
		{in: "", want: nil},
		{in: "judge=16", want: []StageSpec{{Name: StageJudge, Workers: 16}}},
		{in: "compile=2,exec=2,judge=32", want: []StageSpec{
			{Name: StageCompile, Workers: 2}, {Name: StageExec, Workers: 2}, {Name: StageJudge, Workers: 32}}},
		{in: " compile = 2 , judge=4 ", want: []StageSpec{{Name: StageCompile, Workers: 2}, {Name: StageJudge, Workers: 4}}},
		{in: "judge", wantErr: "want name=N"},
		{in: "judge=many", wantErr: "want name=N"},
		{in: "judge=0", wantErr: "want N >= 1"},
		{in: "exec=-3", wantErr: "want N >= 1"},
		{in: "judge=4,", wantErr: "want name=N"},
	} {
		got, err := ParseStageWorkers(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err=%v, want %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.in, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// markRun records which files passed through each stage, in
// completion order — how the chain tests observe scheduling without
// racing on it.
type markRun struct {
	mu   sync.Mutex
	seen map[string][]string // stage -> file names, in completion order
}

func newMarkRun() *markRun { return &markRun{seen: map[string][]string{}} }

func (m *markRun) stage(name string, workers int) StageFunc {
	return StageFunc{
		StageSpec: StageSpec{Name: name, Workers: workers},
		RunFunc: func(_ context.Context, items []*Item) error {
			m.mu.Lock()
			defer m.mu.Unlock()
			for _, it := range items {
				m.seen[name] = append(m.seen[name], it.Input.Name)
			}
			return nil
		},
	}
}

// TestChainOrdering: across worker counts and batch sizes, every file
// runs every stage exactly once, never enters stage k+1 before its
// stage-k Run call has finished with it, and never sees a Run call
// larger than the stage's Batch. Results come back in input order.
func TestChainOrdering(t *testing.T) {
	const nstages, nfiles = 3, 60
	for _, tc := range []struct{ workers, batch int }{
		{1, 0}, {1, 8}, {4, 0}, {4, 1}, {4, 8}, {8, 3},
	} {
		t.Run(fmt.Sprintf("workers=%d/batch=%d", tc.workers, tc.batch), func(t *testing.T) {
			// entered[k][i] and done[k][i] count file i's entries into
			// and completions of stage k.
			var entered, done [nstages][nfiles]atomic.Int32
			stages := make([]StageFunc, nstages)
			for k := range stages {
				stages[k] = StageFunc{
					StageSpec: StageSpec{Name: fmt.Sprintf("s%d", k), Workers: tc.workers, Batch: tc.batch},
					RunFunc: func(_ context.Context, items []*Item) error {
						if len(items) > max(tc.batch, 1) {
							t.Errorf("stage %d: Run over %d files exceeds Batch=%d", k, len(items), tc.batch)
						}
						for _, it := range items {
							if entered[k][it.Index].Add(1) != 1 {
								t.Errorf("file %d entered stage %d twice", it.Index, k)
							}
							if k > 0 && done[k-1][it.Index].Load() != 1 {
								t.Errorf("file %d entered stage %d before completing stage %d", it.Index, k, k-1)
							}
						}
						for _, it := range items {
							done[k][it.Index].Add(1)
						}
						return nil
					},
				}
			}
			inputs := fileInputs(nfiles)
			results, _, err := RunChain(context.Background(), Config{}, stages, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for k := range done {
				for i := range done[k] {
					if n := done[k][i].Load(); n != 1 {
						t.Fatalf("file %d completed stage %d %d times, want 1", i, k, n)
					}
				}
			}
			for i, r := range results {
				if r.Index != i || r.Name != inputs[i].Name {
					t.Fatalf("result %d = {%d %s}, want input order", i, r.Index, r.Name)
				}
			}
		})
	}
}

// TestStopSkipsDownstreamStages: files stopped at the first stage of a
// chain never enter the later stages, and still seal.
func TestStopSkipsDownstreamStages(t *testing.T) {
	m := newMarkRun()
	src := StageFunc{
		StageSpec: StageSpec{Name: "src", Workers: 4},
		RunFunc: func(_ context.Context, items []*Item) error {
			for _, it := range items {
				if it.Index%2 == 1 {
					it.Stop()
				}
			}
			return nil
		},
	}
	inputs := fileInputs(20)
	var sealed atomic.Int64
	cfg := Config{OnResult: func(FileResult) { sealed.Add(1) }}
	if _, _, err := RunChain(context.Background(), cfg, []StageFunc{src, m.stage("mid", 4), m.stage("sink", 4)}, inputs); err != nil {
		t.Fatal(err)
	}
	if got := sealed.Load(); got != int64(len(inputs)) {
		t.Fatalf("sealed %d files, want %d (stopped files must still seal)", got, len(inputs))
	}
	for _, st := range []string{"mid", "sink"} {
		if len(m.seen[st]) != len(inputs)/2 {
			t.Fatalf("stage %s ran %d files, want %d (stopped files must skip it)", st, len(m.seen[st]), len(inputs)/2)
		}
		for _, name := range m.seen[st] {
			var idx int
			fmt.Sscanf(name, "f%03d.c", &idx)
			if idx%2 == 1 {
				t.Fatalf("stopped file %s reached stage %s", name, st)
			}
		}
	}
}

// TestCancellationMidChainPartialResults cancels while files are
// blocked inside the middle stage of a chain: the run drains promptly,
// returns the context error, and files that never finished keep their
// zero-valued records.
func TestCancellationMidChainPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var entered sync.Once
	blockingMid := StageFunc{
		StageSpec: StageSpec{Name: "mid", Workers: 2},
		RunFunc: func(ctx context.Context, items []*Item) error {
			entered.Do(func() { close(release) })
			<-ctx.Done()
			return ctx.Err()
		},
	}
	m := newMarkRun()
	stages := []StageFunc{m.stage("src", 2), blockingMid, m.stage("sink", 2)}
	inputs := fileInputs(16)
	go func() {
		<-release // first file is inside the blocked stage
		cancel()
	}()
	done := make(chan struct{})
	var results []FileResult
	var runErr error
	go func() {
		defer close(done)
		results, _, runErr = RunChain(ctx, Config{}, stages, inputs)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not drain")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", runErr)
	}
	if len(results) != len(inputs) {
		t.Fatalf("partial results: got %d records, want %d (zero-valued for unfinished files)", len(results), len(inputs))
	}
	// No file can have completed the chain: sink needs mid, which
	// never returns before cancellation.
	if n := len(m.seen["sink"]); n != 0 {
		t.Fatalf("%d files completed sink despite the blocked stage", n)
	}
}

// TestConcurrentOnResultFromParallelStages is the -race fixture for
// result streaming: files stopped at stage 1 seal from its workers
// while the rest seal from stage 3's, so OnResult fires concurrently
// from two stages' pools. Every file must stream exactly once.
func TestConcurrentOnResultFromParallelStages(t *testing.T) {
	src := StageFunc{
		StageSpec: StageSpec{Name: "src", Workers: 8},
		RunFunc: func(_ context.Context, items []*Item) error {
			for _, it := range items {
				if it.Index%2 == 0 {
					it.Stop()
				}
			}
			return nil
		},
	}
	inputs := fileInputs(200)
	var mu sync.Mutex
	counts := map[string]int{}
	cfg := Config{OnResult: func(fr FileResult) {
		mu.Lock()
		counts[fr.Name]++
		mu.Unlock()
	}}
	if _, _, err := RunChain(context.Background(), cfg, []StageFunc{src, noopStage("mid", 8), noopStage("sink", 8)}, inputs); err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(inputs) {
		t.Fatalf("streamed %d distinct files, want %d", len(counts), len(inputs))
	}
	for name, n := range counts {
		if n != 1 {
			t.Fatalf("file %s streamed %d times", name, n)
		}
	}
}

// TestBatchedStageCoalesces: a batch-shaped custom stage receives
// multi-item Run calls, never larger than its Batch.
func TestBatchedStageCoalesces(t *testing.T) {
	var maxBatch atomic.Int64
	sink := StageFunc{
		StageSpec: StageSpec{Name: "sink", Workers: 1, Batch: 8},
		RunFunc: func(_ context.Context, items []*Item) error {
			if n := int64(len(items)); n > maxBatch.Load() {
				maxBatch.Store(n)
			}
			if len(items) > 8 {
				return fmt.Errorf("batch of %d exceeds Batch=8", len(items))
			}
			return nil
		},
	}
	if _, _, err := RunChain(context.Background(), Config{}, []StageFunc{noopStage("src", 8), sink}, fileInputs(120)); err != nil {
		t.Fatal(err)
	}
	if maxBatch.Load() < 2 {
		t.Fatalf("single-worker batched sink behind 8 feeders never coalesced (max batch %d)", maxBatch.Load())
	}
}

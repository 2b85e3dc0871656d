package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/corpus"
	"repro/internal/judge"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// alwaysLLM answers every prompt with a fixed verdict.
type alwaysLLM struct{ verdict string }

func (a alwaysLLM) Complete(string) string { return "FINAL JUDGEMENT: " + a.verdict }

// countingLLM counts calls (atomically: judge workers run in parallel).
type countingLLM struct {
	verdict string
	calls   atomic.Int64
}

func (c *countingLLM) Complete(string) string {
	c.calls.Add(1)
	return "FINAL JUDGEMENT: " + c.verdict
}

func testInputs(t *testing.T, d spec.Dialect, n int) ([]Input, []probe.Issue) {
	t.Helper()
	files := corpus.Generate(corpus.Config{Dialect: d, Seed: 55}, n)
	inputs := make([]Input, n)
	issues := make([]probe.Issue, n)
	r := rng.New(77)
	for i, f := range files {
		issue := probe.Issue(i % probe.NumIssues)
		pf := probe.Mutate(f, issue, r.Split(f.Name))
		inputs[i] = Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
		issues[i] = issue
	}
	return inputs, issues
}

// runBG runs the pipeline under a background context and fails the
// test on an unexpected error.
func runBG(t testing.TB, cfg Config, inputs []Input) ([]FileResult, Stats) {
	t.Helper()
	results, st, err := Run(context.Background(), cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return results, st
}

func acceptingConfig(d spec.Dialect, llm judge.LLM, recordAll bool) Config {
	return Config{
		Tools:     agent.NewTools(d),
		Judge:     &judge.Judge{LLM: llm, Style: judge.AgentDirect, Dialect: d},
		Stages:    workerStages(4),
		RecordAll: recordAll,
	}
}

// workerStages sizes every built-in stage's pool to w.
func workerStages(w int) []StageSpec {
	return []StageSpec{{Name: StageCompile, Workers: w}, {Name: StageExec, Workers: w}, {Name: StageJudge, Workers: w}}
}

func TestPipelineVerdictIsConjunction(t *testing.T) {
	inputs, issues := testInputs(t, spec.OpenACC, 36)
	// Judge says everything is valid, so the pipeline verdict reduces
	// to the mechanical stages.
	results, _ := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, true), inputs)
	for i, r := range results {
		mech := r.CompileOK && (!r.ExecRan || r.ExecOK)
		if r.Valid != mech {
			t.Errorf("file %d (issue %d): verdict %v but mechanical %v", i, issues[i], r.Valid, mech)
		}
	}
	// Judge says everything is invalid: nothing passes.
	results, _ = runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"invalid"}, true), inputs)
	for i, r := range results {
		if r.Valid {
			t.Errorf("file %d passed despite judge rejection", i)
		}
	}
}

func TestResultsInInputOrder(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenMP, 24)
	results, _ := runBG(t, acceptingConfig(spec.OpenMP, alwaysLLM{"valid"}, true), inputs)
	if len(results) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(results), len(inputs))
	}
	for i, r := range results {
		if r.Index != i || r.Name != inputs[i].Name {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

func TestShortCircuitSkipsStages(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 36)
	llm := &countingLLM{verdict: "valid"}
	_, stShort := runBG(t, acceptingConfig(spec.OpenACC, llm, false), inputs)
	shortCalls := llm.calls.Load()
	llm2 := &countingLLM{verdict: "valid"}
	_, stAll := runBG(t, acceptingConfig(spec.OpenACC, llm2, true), inputs)
	allCalls := llm2.calls.Load()

	if stShort.Compiles != stAll.Compiles {
		t.Errorf("compile counts differ: %d vs %d", stShort.Compiles, stAll.Compiles)
	}
	// Executions happen only for compiled objects in either mode; the
	// short-circuit saving shows up in judge calls (files that failed
	// compile or execution never reach the expensive LLM stage).
	if stShort.Executions > stAll.Executions {
		t.Errorf("short-circuit executed more than record-all: %d vs %d", stShort.Executions, stAll.Executions)
	}
	if shortCalls >= allCalls {
		t.Errorf("short-circuit did not reduce judge calls: %d vs %d", shortCalls, allCalls)
	}
	if allCalls != stAll.JudgeCalls {
		t.Errorf("stats judge calls %d != llm calls %d", stAll.JudgeCalls, allCalls)
	}
}

func TestShortCircuitAgreesOnVerdicts(t *testing.T) {
	// Short-circuiting must never change a verdict, only skip work.
	inputs, _ := testInputs(t, spec.OpenACC, 36)
	short, _ := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false), inputs)
	all, _ := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, true), inputs)
	for i := range short {
		if short[i].Valid != all[i].Valid {
			t.Errorf("file %d: short=%v recordAll=%v", i, short[i].Valid, all[i].Valid)
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenMP, 24)
	var base []FileResult
	for _, w := range []int{1, 2, 8} {
		cfg := acceptingConfig(spec.OpenMP, alwaysLLM{"valid"}, true)
		cfg.Stages = workerStages(w)
		results, _ := runBG(t, cfg, inputs)
		if base == nil {
			base = results
			continue
		}
		for i := range results {
			if results[i].Valid != base[i].Valid || results[i].CompileOK != base[i].CompileOK {
				t.Fatalf("worker count %d changed result %d", w, i)
			}
		}
	}
}

func TestNilJudgeMechanicalOnly(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 18)
	cfg := acceptingConfig(spec.OpenACC, nil, true)
	cfg.Judge = nil
	results, st := runBG(t, cfg, inputs)
	if st.JudgeCalls != 0 {
		t.Fatalf("judge calls = %d with nil judge", st.JudgeCalls)
	}
	for i, r := range results {
		if r.JudgeRan {
			t.Fatalf("file %d judged with nil judge", i)
		}
		mech := r.CompileOK && (!r.ExecRan || r.ExecOK)
		if r.Valid != mech {
			t.Fatalf("file %d: mechanical-only verdict wrong", i)
		}
	}
}

func TestKeepResponses(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 6)
	cfg := acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, true)
	cfg.KeepResponses = true
	results, _ := runBG(t, cfg, inputs)
	kept := 0
	for _, r := range results {
		if r.Evaluation != nil {
			kept++
			if !strings.Contains(r.Evaluation.Response, "FINAL JUDGEMENT") {
				t.Fatal("kept evaluation lacks response")
			}
		}
	}
	if kept == 0 {
		t.Fatal("no evaluations kept despite KeepResponses")
	}
	cfg.KeepResponses = false
	results, _ = runBG(t, cfg, inputs)
	for _, r := range results {
		if r.Evaluation != nil {
			t.Fatal("evaluation kept without KeepResponses")
		}
	}
}

func TestEmptyInput(t *testing.T) {
	results, st := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, true), nil)
	if len(results) != 0 || st.Files != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestFortranFlowsThroughPipeline(t *testing.T) {
	f, err := corpus.InstantiateTemplate(spec.OpenACC, "parallel_loop_vecadd", testlang.LangFortran, 3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{{Name: f.Name, Source: f.Source, Lang: f.Lang}}
	results, _ := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, true), inputs)
	r := results[0]
	if !r.CompileOK {
		t.Fatal("valid Fortran failed compile stage")
	}
	if r.ExecRan {
		t.Fatal("Fortran executed despite simulation not running it")
	}
	if !r.Valid {
		t.Fatal("valid Fortran rejected by pipeline")
	}
}

// TestFortranShortCircuitReachesJudge is the regression test for the
// short-circuit-mode bug where a file that compiles to no executable
// object (Fortran) was dropped at the exec stage and never judged,
// contradicting finalVerdict's "leave the decision to the judge"
// contract.
func TestFortranShortCircuitReachesJudge(t *testing.T) {
	f, err := corpus.InstantiateTemplate(spec.OpenACC, "parallel_loop_vecadd", testlang.LangFortran, 3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{{Name: f.Name, Source: f.Source, Lang: f.Lang}}
	for _, recordAll := range []bool{false, true} {
		llm := &countingLLM{verdict: "valid"}
		results, st := runBG(t, acceptingConfig(spec.OpenACC, llm, recordAll), inputs)
		r := results[0]
		if !r.CompileOK {
			t.Fatalf("recordAll=%v: valid Fortran failed compile stage", recordAll)
		}
		if r.ExecRan {
			t.Fatalf("recordAll=%v: Fortran executed despite simulation not running it", recordAll)
		}
		if !r.JudgeRan || st.JudgeCalls != 1 {
			t.Fatalf("recordAll=%v: Fortran never reached the judge (judged=%v calls=%d)",
				recordAll, r.JudgeRan, st.JudgeCalls)
		}
		if !r.Valid {
			t.Fatalf("recordAll=%v: judge-approved Fortran rejected", recordAll)
		}
	}
}

// TestShortCircuitParityWithFortran extends the verdict-parity
// guarantee to suites containing non-executable files.
func TestShortCircuitParityWithFortran(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 24)
	files := corpus.Generate(corpus.Config{
		Dialect: spec.OpenACC,
		Langs:   []testlang.Language{testlang.LangFortran},
		Seed:    99,
	}, 6)
	for _, f := range files {
		inputs = append(inputs, Input{Name: f.Name, Source: f.Source, Lang: f.Lang})
	}
	short, _ := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false), inputs)
	all, _ := runBG(t, acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, true), inputs)
	for i := range short {
		if short[i].Valid != all[i].Valid {
			t.Errorf("file %d (%s): short=%v recordAll=%v",
				i, inputs[i].Name, short[i].Valid, all[i].Valid)
		}
	}
}

// blockingLLM parks every completion until its context is cancelled,
// simulating a hung endpoint.
type blockingLLM struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockingLLM) Complete(string) string { return "FINAL JUDGEMENT: valid" }

func (b *blockingLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return "", ctx.Err()
}

func TestContextCancellationReturnsPartialResults(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 24)
	llm := &blockingLLM{started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-llm.started // at least one file is mid-judge
		cancel()
	}()
	start := time.Now()
	results, _, err := Run(ctx, acceptingConfig(spec.OpenACC, llm, true), inputs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if len(results) != len(inputs) {
		t.Fatalf("partial results slice has %d entries, want %d", len(results), len(inputs))
	}
	compiled := 0
	for _, r := range results {
		if r.JudgeRan {
			t.Errorf("file %d reports a judged verdict from a hung endpoint", r.Index)
		}
		if r.CompileRan {
			compiled++
		}
	}
	if compiled == 0 {
		t.Error("no partial progress recorded before cancellation")
	}
}

// failingLLM is a context-aware endpoint that errors on every call
// while the context is still live.
type failingLLM struct{ err error }

func (f failingLLM) Complete(string) string { return "FINAL JUDGEMENT: valid" }

func (f failingLLM) CompleteContext(context.Context, string) (string, error) {
	return "", f.err
}

func TestBackendErrorAbortsRun(t *testing.T) {
	// A real endpoint failure (not cancellation) must surface as Run's
	// error, not silently score the unjudged files as invalid.
	inputs, _ := testInputs(t, spec.OpenACC, 12)
	wantErr := errors.New("backend exploded")
	results, _, err := Run(context.Background(),
		acceptingConfig(spec.OpenACC, failingLLM{err: wantErr}, true), inputs)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	for i, r := range results {
		if r.JudgeRan || r.Valid {
			t.Errorf("file %d scored despite failing backend: %+v", i, r)
		}
	}
}

func TestOnResultStreamsEveryFile(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 24)
	for _, recordAll := range []bool{false, true} {
		var mu sync.Mutex
		streamed := map[int]FileResult{}
		cfg := acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, recordAll)
		cfg.OnResult = func(r FileResult) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := streamed[r.Index]; dup {
				t.Errorf("file %d streamed twice", r.Index)
			}
			streamed[r.Index] = r
		}
		results, _ := runBG(t, cfg, inputs)
		if len(streamed) != len(inputs) {
			t.Fatalf("recordAll=%v: streamed %d of %d files", recordAll, len(streamed), len(inputs))
		}
		for i, r := range results {
			if s := streamed[i]; s.Valid != r.Valid || s.Name != r.Name || s.Verdict != r.Verdict {
				t.Errorf("recordAll=%v: streamed result %d diverges from final slice", recordAll, i)
			}
		}
	}
}

// gibberishLLM never produces the mandated judgement phrase.
type gibberishLLM struct{}

func (gibberishLLM) Complete(string) string { return "I cannot decide about this file." }

func TestUnparsableResponsesFailSafe(t *testing.T) {
	// A judge whose responses never contain the FINAL JUDGEMENT phrase
	// must never validate a file: unparsable is not approval.
	inputs, _ := testInputs(t, spec.OpenACC, 12)
	results, _ := runBG(t, acceptingConfig(spec.OpenACC, gibberishLLM{}, true), inputs)
	for i, r := range results {
		if r.Valid {
			t.Errorf("file %d validated by an unparsable judge", i)
		}
		if r.JudgeRan && r.Verdict != judge.Unparsable {
			t.Errorf("file %d verdict = %v, want unparsable", i, r.Verdict)
		}
	}
}

package llm4vv

// Tests for the Runner / Backend / Experiment API: registry error
// paths, context cancellation with partial progress, short-circuit vs
// record-all verdict parity, evaluation caching, progress streaming,
// and the one-Register-call scenario extension path.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/testlang"
	"repro/internal/trace"
)

// smallSpec is a fast mixed suite for API tests.
func smallSpec(langs ...testlang.Language) SuiteSpec {
	if len(langs) == 0 {
		langs = []testlang.Language{testlang.LangC, testlang.LangCPP}
	}
	return SuiteSpec{
		Dialect: spec.OpenACC,
		Counts:  probe.Counts{4, 3, 3, 3, 3, 12},
		Langs:   langs,
		Seed:    2026,
	}
}

// judgeBatch sets the judge stage's batch size through WithStages.
func judgeBatch(n int) Option {
	return WithStages(pipeline.StageSpec{Name: pipeline.StageJudge, Batch: n})
}

func TestBackendRegistryUnknownName(t *testing.T) {
	if _, err := NewBackend("no-such-backend", 1); err == nil {
		t.Fatal("NewBackend accepted an unknown name")
	} else if !strings.Contains(err.Error(), DefaultBackend) {
		t.Errorf("error %q does not list registered backends", err)
	}
	if _, err := NewRunner(WithBackend("no-such-backend")); err == nil {
		t.Fatal("NewRunner accepted an unknown backend name")
	}
}

func TestDefaultBackendRegistered(t *testing.T) {
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	if llm == nil {
		t.Fatal("default backend constructed nil endpoint")
	}
	found := false
	for _, name := range Backends() {
		if name == DefaultBackend {
			found = true
		}
	}
	if !found {
		t.Fatalf("Backends() = %v lacks %q", Backends(), DefaultBackend)
	}
}

// acceptAllLLM is a registrable toy endpoint.
type acceptAllLLM struct{}

func (acceptAllLLM) Complete(prompt string) string {
	if strings.Contains(prompt, "correct") {
		return "FINAL JUDGEMENT: correct"
	}
	return "FINAL JUDGEMENT: valid"
}

func TestRegisteredBackendPlugsIntoExperiments(t *testing.T) {
	RegisterBackend("test-accept-all", func(seed uint64) judge.LLM { return acceptAllLLM{} })
	r, err := NewRunner(WithBackend("test-accept-all"))
	if err != nil {
		t.Fatal(err)
	}
	s := smallSpec()
	sum, err := r.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// An accept-everything judge is exactly right on valid files and
	// exactly wrong on every mutated one.
	if got := sum.PerIssue[probe.IssueNone].Accuracy(); got != 1 {
		t.Errorf("accept-all backend scored %.2f on valid files, want 1.0", got)
	}
	if got := sum.PerIssue[probe.IssueDirective].Accuracy(); got != 0 {
		t.Errorf("accept-all backend scored %.2f on directive mutations, want 0.0", got)
	}
}

func TestExperimentRegistryErrorPath(t *testing.T) {
	if _, err := LookupExperiment("no-such-experiment"); err == nil {
		t.Fatal("LookupExperiment accepted an unknown name")
	} else if !strings.Contains(err.Error(), "part1") {
		t.Errorf("error %q does not list registered experiments", err)
	}
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperiment(context.Background(), r, "no-such-experiment", ExperimentParams{}); err == nil {
		t.Fatal("RunExperiment dispatched an unknown name")
	}
}

func TestBuiltinExperimentsRegistered(t *testing.T) {
	want := []string{"part1", "part2", "ablations", "genloop"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name())
	}
	for i, name := range want {
		if i >= len(got) || got[i] != name {
			t.Fatalf("Experiments() order = %v, want prefix %v", got, want)
		}
	}
}

// toyCountResult demonstrates the single-Register-call extension path.
type toyCountResult struct {
	Files int
	Valid int
}

func (r *toyCountResult) Report() string {
	return fmt.Sprintf("toy-count: %d/%d files validated", r.Valid, r.Files)
}

func TestToyExperimentThroughGenericDispatch(t *testing.T) {
	// Adding a scenario is one Register call...
	RegisterExperimentFunc("test-toy-count", "count pipeline-validated files on a tiny suite",
		func(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
			results, _, err := r.ValidateSuite(ctx, smallSpec(), judge.AgentDirect)
			if err != nil {
				return nil, err
			}
			res := &toyCountResult{Files: len(results)}
			for _, fr := range results {
				if fr.Valid {
					res.Valid++
				}
			}
			return res, nil
		})
	// ...after which the generic front-end path runs it like a built-in.
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExperiment(context.Background(), r, "test-toy-count", ExperimentParams{})
	if err != nil {
		t.Fatal(err)
	}
	toy, ok := res.(*toyCountResult)
	if !ok {
		t.Fatalf("generic dispatch returned %T", res)
	}
	if toy.Files != smallSpec().Total() {
		t.Errorf("toy experiment saw %d files, want %d", toy.Files, smallSpec().Total())
	}
	if !strings.Contains(res.Report(), "toy-count:") {
		t.Errorf("Report() = %q lacks experiment output", res.Report())
	}
	// And it shows up in the enumeration front-ends print.
	found := false
	for _, e := range Experiments() {
		if e.Name() == "test-toy-count" {
			found = true
		}
	}
	if !found {
		t.Error("registered toy experiment missing from Experiments()")
	}
}

func TestDirectProbingCancellation(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.DirectProbing(ctx, smallSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := r.PartTwo(ctx, smallSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("PartTwo err = %v, want context.Canceled", err)
	}
	if _, err := r.GenerationLoop(ctx, spec.OpenACC, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerationLoop err = %v, want context.Canceled", err)
	}
}

// TestShortCircuitRecordAllParity: the Runner's two pipeline modes
// must agree on every per-file verdict — including Fortran files that
// compile to no executable object (the fixed short-circuit drop).
func TestShortCircuitRecordAllParity(t *testing.T) {
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)
	shortR, err := NewRunner(WithRecordAll(false))
	if err != nil {
		t.Fatal(err)
	}
	allR, err := NewRunner(WithRecordAll(true))
	if err != nil {
		t.Fatal(err)
	}
	shortRes, shortStats, err := shortR.ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	allRes, allStats, err := allR.ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	if len(shortRes) != len(allRes) {
		t.Fatalf("result lengths differ: %d vs %d", len(shortRes), len(allRes))
	}
	for i := range shortRes {
		if shortRes[i].Valid != allRes[i].Valid {
			t.Errorf("file %d (%s): short-circuit=%v record-all=%v",
				i, shortRes[i].Name, shortRes[i].Valid, allRes[i].Valid)
		}
	}
	if shortStats.JudgeCalls >= allStats.JudgeCalls {
		t.Errorf("short-circuit did not save judge calls: %d vs %d",
			shortStats.JudgeCalls, allStats.JudgeCalls)
	}
}

func TestProgressStreaming(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	r, err := NewRunner(WithProgress(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := smallSpec()
	if _, _, err := r.ValidateSuite(context.Background(), s, judge.AgentDirect); err != nil {
		t.Fatal(err)
	}
	if len(events) != s.Total() {
		t.Fatalf("got %d progress events, want %d", len(events), s.Total())
	}
	maxDone := 0
	for _, e := range events {
		if e.Total != s.Total() {
			t.Errorf("event Total = %d, want %d", e.Total, s.Total())
		}
		if !strings.HasPrefix(e.Phase, "pipeline/") {
			t.Errorf("event phase %q lacks pipeline prefix", e.Phase)
		}
		if e.Done > maxDone {
			maxDone = e.Done
		}
	}
	if maxDone != s.Total() {
		t.Errorf("progress never reached %d/%d", maxDone, s.Total())
	}
}

// batchCallCountingLLM wraps the simulated model counting endpoint
// round-trips (CompleteBatch calls), not prompts — the probe for
// cross-shard judge-batch coalescing.
type batchCallCountingLLM struct {
	inner      *model.Model
	batchCalls atomic.Int64
}

func (c *batchCallCountingLLM) Complete(prompt string) string {
	c.batchCalls.Add(1)
	return c.inner.Complete(prompt)
}

func (c *batchCallCountingLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	c.batchCalls.Add(1)
	return c.inner.CompleteBatch(ctx, prompts)
}

// TestCrossShardBatchCoalescing: on a resume-thinned run — most files
// already stored, the rest scattered across shards — the scheduler
// must merge each shard's undersized remainder into full endpoint
// batches instead of submitting one fragment per shard, and the
// resumed summary must stay identical to the all-fresh run.
func TestCrossShardBatchCoalescing(t *testing.T) {
	s := smallSpec()
	suite, err := BuildSuite(s)
	if err != nil {
		t.Fatal(err)
	}

	// Ground-truth verdicts for pre-populating the store, computed the
	// way any fresh run would.
	j := &judge.Judge{LLM: model.New(DefaultModelSeed), Style: judge.Direct, Dialect: s.Dialect}
	verdicts := make([]judge.Verdict, len(suite))
	for i, pf := range suite {
		ev, err := j.Evaluate(context.Background(), pf.Source, nil)
		if err != nil {
			t.Fatal(err)
		}
		verdicts[i] = ev.Verdict
	}

	counting := &batchCallCountingLLM{}
	name := fmt.Sprintf("test-batch-calls-%d", countingSerial.Add(1))
	RegisterBackend(name, func(seed uint64) judge.LLM {
		counting.inner = model.New(seed)
		return counting
	})

	// Pre-populate three out of every four files, leaving one pending
	// file per four — each shard of four holds a lone fragment, the
	// worst case for per-shard batch submission.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	for i, pf := range suite {
		if i%4 == 0 {
			pending++
			continue
		}
		err := st.Put(store.Record{
			Experiment: "direct-probing", Backend: name, Seed: DefaultModelSeed,
			FileHash: store.HashSource(pf.Source), Name: pf.Name,
			JudgeRan: true, Verdict: verdicts[i].String(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	const shard = 4
	r := mustRunner(t,
		WithBackend(name), WithWorkers(1), judgeBatch(shard),
		WithStore(path), WithResume(true))
	sum, err := r.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Parity: resuming from stored verdicts reproduces the all-fresh
	// summary exactly.
	ref, err := mustRunner(t).DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accuracy() != ref.Accuracy() || sum.Mistakes != ref.Mistakes || sum.Total != ref.Total {
		t.Errorf("resumed summary diverged: acc %v/%v mistakes %d/%d total %d/%d",
			sum.Accuracy(), ref.Accuracy(), sum.Mistakes, ref.Mistakes, sum.Total, ref.Total)
	}

	// Coalescing: with one worker, the pending fragments accumulate
	// into batches of at least the shard size before submission, so
	// round-trips are bounded by ceil(pending/shard) — not by the
	// number of shards holding a fragment (which is pending itself).
	maxCalls := int64((pending + shard - 1) / shard)
	if got := counting.batchCalls.Load(); got > maxCalls {
		t.Errorf("endpoint saw %d batch calls for %d pending files (shard %d), want <= %d (cross-shard coalescing)",
			got, pending, shard, maxCalls)
	}
}

// TestStageOptionsValidation: WithStages misuse must
// fail NewRunner, not hang or misbehave mid-experiment.
func TestStageOptionsValidation(t *testing.T) {
	if _, err := NewRunner(WithStages(pipeline.StageSpec{Name: "lint", Workers: 4})); err == nil || !strings.Contains(err.Error(), "unknown pipeline stage") {
		t.Errorf("unknown stage name: err=%v", err)
	}
	if _, err := NewRunner(WithStages(pipeline.StageSpec{Name: pipeline.StageJudge, Workers: -2})); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative workers: err=%v", err)
	}
	if _, err := NewRunner(WithStages(pipeline.StageSpec{Name: pipeline.StageJudge, Batch: -1})); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative batch: err=%v", err)
	}
	if _, err := NewRunner(WithStages(
		pipeline.StageSpec{Name: pipeline.StageCompile, Workers: 2},
		pipeline.StageSpec{Name: pipeline.StageJudge, Workers: 8, Batch: 4},
	)); err != nil {
		t.Fatalf("valid stage specs rejected: %v", err)
	}
}

// TestStageWorkersParity: per-stage worker overrides are scheduling
// knobs — the experiment's verdicts must not move.
func TestStageWorkersParity(t *testing.T) {
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)
	base, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := NewRunner(
		WithStages(pipeline.StageSpec{Name: pipeline.StageCompile, Workers: 1}),
		WithStages(pipeline.StageSpec{Name: pipeline.StageExec, Workers: 2}),
		WithStages(pipeline.StageSpec{Name: pipeline.StageJudge, Workers: 7, Batch: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := base.ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tuned.ValidateSuite(context.Background(), s, judge.AgentDirect)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("file %d: tuned run %+v != default run %+v", i, got[i], want[i])
		}
	}

	// Direct and panel judging run on the judge stage too, so the
	// tuned judge spec governs them — and must not move their scores.
	wantDirect, err := base.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	gotDirect, err := tuned.DirectProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDirect, wantDirect) {
		t.Errorf("direct probing: tuned %+v != default %+v", gotDirect, wantDirect)
	}
	basePanel, err := base.panelRunner()
	if err != nil {
		t.Fatal(err)
	}
	tunedPanel, err := tuned.panelRunner()
	if err != nil {
		t.Fatal(err)
	}
	wantPanel, err := basePanel.PanelProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	gotPanel, err := tunedPanel.PanelProbing(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPanel, wantPanel) {
		t.Errorf("panel probing: tuned %+v != default %+v", gotPanel, wantPanel)
	}
}

// TestAbortedRunEndsEveryTraceRoot: a traced run cancelled mid-way
// still ends every file's trace root — one "file" root per input
// reaches the sink — and each root the abort left unsealed carries
// the run error, for a direct-judging phase and a pipeline phase.
func TestAbortedRunEndsEveryTraceRoot(t *testing.T) {
	s := smallSpec(testlang.LangC, testlang.LangCPP, testlang.LangFortran)
	phases := map[string]func(ctx context.Context, r *Runner) error{
		"direct-probing": func(ctx context.Context, r *Runner) error {
			_, err := r.DirectProbing(ctx, s)
			return err
		},
		"validate-suite": func(ctx context.Context, r *Runner) error {
			_, _, err := r.ValidateSuite(ctx, s, judge.AgentDirect)
			return err
		},
	}
	for phase, run := range phases {
		t.Run(phase, func(t *testing.T) {
			var buf bytes.Buffer // the tracer serialises writes under its own lock
			tracer := trace.New(trace.WithWriter(&buf))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var sealed atomic.Int64
			r := mustRunner(t, WithTracer(tracer), WithWorkers(2), judgeBatch(2),
				WithProgress(func(Progress) {
					if sealed.Add(1) == 3 {
						cancel()
					}
				}))
			if err := run(ctx, r); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}

			roots, errRoots := 0, 0
			for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				var rec trace.Record
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatalf("bad trace fragment %q: %v", line, err)
				}
				for _, sp := range rec.Spans {
					if sp.Name != "file" || sp.Parent != "" {
						continue
					}
					roots++
					if e := attrOf(sp, "error"); e != "" {
						errRoots++
						if !strings.Contains(e, context.Canceled.Error()) {
							t.Errorf("unsealed root %s carries error %q, want the run error", attrOf(sp, "name"), e)
						}
					}
				}
			}
			if roots != s.Total() {
				t.Errorf("sink received %d file roots, want one per input (%d)", roots, s.Total())
			}
			if want := s.Total() - int(sealed.Load()); errRoots != want || want == 0 {
				t.Errorf("%d roots carry an error, want %d (every file the cancel left unsealed)", errRoots, want)
			}
		})
	}
}

// TestPipelineThroughputTraced: a traced Runner's PipelineThroughput
// opens one "file" trace per file in each of its two passes
// (short-circuit and record-all), as WithTracer promises for every
// experiment.
func TestPipelineThroughputTraced(t *testing.T) {
	s := smallSpec(testlang.LangC, testlang.LangFortran)
	var buf bytes.Buffer
	r := mustRunner(t, WithTracer(trace.New(trace.WithWriter(&buf))), WithWorkers(2))
	if _, err := r.PipelineThroughput(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec trace.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad trace fragment %q: %v", line, err)
		}
		for _, sp := range rec.Spans {
			if sp.Name == "file" && sp.Parent == "" {
				roots++
			}
		}
	}
	if want := 2 * s.Total(); roots != want {
		t.Fatalf("PipelineThroughput produced %d file roots, want %d (one per file per pass)", roots, want)
	}
}

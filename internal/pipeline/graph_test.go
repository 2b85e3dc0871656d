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

// noopStage builds a trivially-succeeding stage for graph-shape tests.
func noopStage(name string, workers int) Stage {
	return StageFunc{
		StageSpec: StageSpec{Name: name, Workers: workers},
		RunFunc:   func(context.Context, []*Item) error { return nil },
	}
}

func TestGraphRejectsCycles(t *testing.T) {
	stages := []Stage{noopStage("a", 1), noopStage("b", 1), noopStage("c", 1)}
	_, err := NewGraph(stages,
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic graph accepted: err=%v", err)
	}
	// The cycle report names the offending stages.
	for _, name := range []string{"a", "b", "c"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("cycle error %q does not name stage %q", err, name)
		}
	}
	// A cycle off the main chain is still caught.
	stages = append(stages, noopStage("d", 1))
	_, err = NewGraph(stages,
		[2]string{"a", "b"}, [2]string{"c", "d"}, [2]string{"d", "c"})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("partial cycle accepted: err=%v", err)
	}
}

func TestGraphConstructionErrors(t *testing.T) {
	ab := []Stage{noopStage("a", 1), noopStage("b", 1)}
	cases := []struct {
		name   string
		stages []Stage
		edges  [][2]string
		want   string
	}{
		{"empty graph", nil, nil, "at least one stage"},
		{"duplicate stage name", []Stage{noopStage("a", 1), noopStage("a", 1)}, nil, "duplicate stage"},
		{"empty stage name", []Stage{noopStage("", 1)}, nil, "empty name"},
		{"self edge", ab, [][2]string{{"a", "a"}}, "self-edge"},
		{"duplicate edge", ab, [][2]string{{"a", "b"}, {"a", "b"}}, "duplicate edge"},
		{"unknown from", ab, [][2]string{{"x", "b"}}, "unknown stage"},
		{"unknown to", ab, [][2]string{{"a", "x"}}, "unknown stage"},
		{"negative workers", []Stage{noopStage("a", -1)}, nil, "negative Workers"},
		{"negative batch", []Stage{StageFunc{
			StageSpec: StageSpec{Name: "a", Batch: -2},
			RunFunc:   func(context.Context, []*Item) error { return nil },
		}}, nil, "negative Batch"},
	}
	for _, tc := range cases {
		_, err := NewGraph(tc.stages, tc.edges...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestGraphStagesTopologicalOrder(t *testing.T) {
	g, err := NewGraph(
		[]Stage{noopStage("sink", 2), noopStage("left", 1), noopStage("right", 1), noopStage("src", 1)},
		[2]string{"src", "left"}, [2]string{"src", "right"},
		[2]string{"left", "sink"}, [2]string{"right", "sink"},
	)
	if err != nil {
		t.Fatal(err)
	}
	specs := g.Stages()
	pos := map[string]int{}
	for i, s := range specs {
		pos[s.Name] = i
	}
	if pos["src"] != 0 || pos["sink"] != 3 {
		t.Fatalf("topological order wrong: %v", specs)
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

// markStage records which files passed through it and asserts, per
// file, a caller-supplied precondition — how the diamond and
// dependency tests observe scheduling order without racing on it.
type markRun struct {
	mu    sync.Mutex
	seen  map[string][]string // stage -> file names, in completion order
	fails []string
}

func (m *markRun) stage(name string, workers int, pre func(m *markRun, it *Item) string) Stage {
	return StageFunc{
		StageSpec: StageSpec{Name: name, Workers: workers},
		RunFunc: func(_ context.Context, items []*Item) error {
			for _, it := range items {
				m.mu.Lock()
				if pre != nil {
					if msg := pre(m, it); msg != "" {
						m.fails = append(m.fails, name+"/"+it.Input.Name+": "+msg)
					}
				}
				m.seen[name] = append(m.seen[name], it.Input.Name)
				m.mu.Unlock()
			}
			return nil
		},
	}
}

// ran reports whether stage already recorded the file. Callers hold
// m.mu (pre runs under the lock).
func (m *markRun) ran(stage, file string) bool {
	for _, n := range m.seen[stage] {
		if n == file {
			return true
		}
	}
	return false
}

func newMarkRun() *markRun { return &markRun{seen: map[string][]string{}} }

// TestDiamondGraphScheduling drives a diamond — src fans out to two
// parallel branches that join at sink — and asserts the precedence
// constraints held for every file while both branches ran.
func TestDiamondGraphScheduling(t *testing.T) {
	m := newMarkRun()
	g, err := NewGraph(
		[]Stage{
			m.stage("src", 4, nil),
			m.stage("left", 4, func(m *markRun, it *Item) string {
				if !m.ran("src", it.Input.Name) {
					return "entered left before src completed"
				}
				return ""
			}),
			m.stage("right", 4, func(m *markRun, it *Item) string {
				if !m.ran("src", it.Input.Name) {
					return "entered right before src completed"
				}
				return ""
			}),
			m.stage("sink", 4, func(m *markRun, it *Item) string {
				if !m.ran("left", it.Input.Name) || !m.ran("right", it.Input.Name) {
					return "entered sink before both branches completed"
				}
				return ""
			}),
		},
		[2]string{"src", "left"}, [2]string{"src", "right"},
		[2]string{"left", "sink"}, [2]string{"right", "sink"},
	)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, 40)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("f%02d.c", i)}
	}
	results, _, err := RunGraph(context.Background(), Config{}, g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.fails) > 0 {
		t.Fatalf("ordering violations: %v", m.fails)
	}
	for _, st := range []string{"src", "left", "right", "sink"} {
		if len(m.seen[st]) != len(inputs) {
			t.Fatalf("stage %s ran %d files, want %d", st, len(m.seen[st]), len(inputs))
		}
	}
	if len(results) != len(inputs) {
		t.Fatalf("got %d results, want %d", len(results), len(inputs))
	}
}

// TestStopSkipsDownstreamStages: files stopped at the source of a
// diamond never enter either branch or the sink, and still seal.
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
	g, err := NewGraph(
		[]Stage{src, m.stage("left", 4, nil), m.stage("right", 4, nil), m.stage("sink", 4, nil)},
		[2]string{"src", "left"}, [2]string{"src", "right"},
		[2]string{"left", "sink"}, [2]string{"right", "sink"},
	)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, 20)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("f%02d.c", i)}
	}
	var sealed atomic.Int64
	cfg := Config{OnResult: func(FileResult) { sealed.Add(1) }}
	if _, _, err := RunGraph(context.Background(), cfg, g, inputs); err != nil {
		t.Fatal(err)
	}
	if got := sealed.Load(); got != int64(len(inputs)) {
		t.Fatalf("sealed %d files, want %d (stopped files must still seal)", got, len(inputs))
	}
	for _, st := range []string{"left", "right", "sink"} {
		if len(m.seen[st]) != len(inputs)/2 {
			t.Fatalf("stage %s ran %d files, want %d (stopped files must skip it)", st, len(m.seen[st]), len(inputs)/2)
		}
		for _, name := range m.seen[st] {
			var idx int
			fmt.Sscanf(name, "f%02d.c", &idx)
			if idx%2 == 1 {
				t.Fatalf("stopped file %s reached stage %s", name, st)
			}
		}
	}
}

// TestCancellationMidDiamondPartialResults cancels while files are
// blocked inside one branch of a diamond: the run drains promptly,
// returns the context error, and files that never finished keep their
// zero-valued records.
func TestCancellationMidDiamondPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var entered sync.Once
	blockingLeft := StageFunc{
		StageSpec: StageSpec{Name: "left", Workers: 2},
		RunFunc: func(ctx context.Context, items []*Item) error {
			entered.Do(func() { close(release) })
			<-ctx.Done()
			return ctx.Err()
		},
	}
	m := newMarkRun()
	g, err := NewGraph(
		[]Stage{m.stage("src", 2, nil), blockingLeft, m.stage("right", 2, nil), m.stage("sink", 2, nil)},
		[2]string{"src", "left"}, [2]string{"src", "right"},
		[2]string{"left", "sink"}, [2]string{"right", "sink"},
	)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, 16)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("f%02d.c", i)}
	}
	go func() {
		<-release // first file is inside the blocked branch
		cancel()
	}()
	done := make(chan struct{})
	var results []FileResult
	var runErr error
	go func() {
		defer close(done)
		results, _, runErr = RunGraph(ctx, Config{}, g, inputs)
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
	// No file can have completed the full graph: sink needs left,
	// which never returns before cancellation.
	if n := len(m.seen["sink"]); n != 0 {
		t.Fatalf("%d files completed sink despite the blocked branch", n)
	}
}

// TestConcurrentOnResultFromParallelStages is the -race fixture for
// result streaming: files complete on two parallel terminal stages at
// once, so OnResult fires concurrently from both branches' workers.
// Every file must stream exactly once.
func TestConcurrentOnResultFromParallelStages(t *testing.T) {
	g, err := NewGraph(
		[]Stage{noopStage("src", 8), noopStage("left", 8), noopStage("right", 8)},
		[2]string{"src", "left"}, [2]string{"src", "right"},
	)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, 200)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("f%03d.c", i)}
	}
	var mu sync.Mutex
	counts := map[string]int{}
	cfg := Config{OnResult: func(fr FileResult) {
		mu.Lock()
		counts[fr.Name]++
		mu.Unlock()
	}}
	if _, _, err := RunGraph(context.Background(), cfg, g, inputs); err != nil {
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
	g, err := NewGraph([]Stage{noopStage("src", 8), sink}, [2]string{"src", "sink"})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, 120)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("f%03d.c", i)}
	}
	if _, _, err := RunGraph(context.Background(), Config{}, g, inputs); err != nil {
		t.Fatal(err)
	}
	if maxBatch.Load() < 2 {
		t.Fatalf("single-worker batched sink behind 8 feeders never coalesced (max batch %d)", maxBatch.Load())
	}
}

func TestDependsOnValidation(t *testing.T) {
	g, err := NewGraph([]Stage{noopStage("s", 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		inputs []Input
		want   string
	}{
		{"unknown dependency", []Input{{Name: "a", DependsOn: []string{"ghost"}}}, "unknown input"},
		{"self dependency", []Input{{Name: "a", DependsOn: []string{"a"}}}, "depends on itself"},
		{"duplicate names", []Input{{Name: "a"}, {Name: "a", DependsOn: []string{"a"}}}, "share the name"},
		{"cycle", []Input{
			{Name: "a", DependsOn: []string{"b"}},
			{Name: "b", DependsOn: []string{"a"}},
		}, "dependency cycle"},
	}
	for _, tc := range cases {
		_, _, err := RunGraph(context.Background(), Config{}, g, tc.inputs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestDependsOnGatesPerStage: a dependent file enters each stage only
// after its dependency completed that same stage — per-stage gating,
// not a whole-file barrier.
func TestDependsOnGatesPerStage(t *testing.T) {
	m := newMarkRun()
	depOf := map[string]string{"mid.c": "root.c", "leaf.c": "mid.c"}
	pre := func(stage string) func(m *markRun, it *Item) string {
		return func(m *markRun, it *Item) string {
			if dep, ok := depOf[it.Input.Name]; ok && !m.ran(stage, dep) {
				return "entered " + stage + " before dependency " + dep
			}
			return ""
		}
	}
	g, err := NewGraph(
		[]Stage{
			m.stage("first", 4, pre("first")),
			m.stage("second", 4, pre("second")),
		},
		[2]string{"first", "second"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave unrelated files so the chain contends with real
	// parallel traffic.
	inputs := []Input{
		{Name: "leaf.c", DependsOn: []string{"mid.c"}},
		{Name: "x0.c"}, {Name: "x1.c"}, {Name: "x2.c"},
		{Name: "mid.c", DependsOn: []string{"root.c"}},
		{Name: "x3.c"}, {Name: "x4.c"},
		{Name: "root.c"},
	}
	for run := 0; run < 20; run++ {
		m.seen = map[string][]string{}
		m.fails = nil
		if _, _, err := RunGraph(context.Background(), Config{}, g, inputs); err != nil {
			t.Fatal(err)
		}
		if len(m.fails) > 0 {
			t.Fatalf("run %d ordering violations: %v", run, m.fails)
		}
		for _, st := range []string{"first", "second"} {
			if len(m.seen[st]) != len(inputs) {
				t.Fatalf("run %d: stage %s ran %d files, want %d", run, st, len(m.seen[st]), len(inputs))
			}
		}
	}
}

// TestDependsOnStoppedDependencyStillReleases: a dependency that
// short-circuits out of the graph still releases its dependents —
// skipped stages count as completed, so nothing deadlocks.
func TestDependsOnStoppedDependencyStillReleases(t *testing.T) {
	m := newMarkRun()
	src := StageFunc{
		StageSpec: StageSpec{Name: "src", Workers: 2},
		RunFunc: func(_ context.Context, items []*Item) error {
			for _, it := range items {
				if it.Input.Name == "dep.c" {
					it.Stop()
				}
			}
			return nil
		},
	}
	g, err := NewGraph([]Stage{src, m.stage("next", 2, nil)}, [2]string{"src", "next"})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{
		{Name: "dep.c"},
		{Name: "a.c", DependsOn: []string{"dep.c"}},
		{Name: "b.c", DependsOn: []string{"a.c"}},
	}
	done := make(chan struct{})
	var sealed atomic.Int64
	go func() {
		defer close(done)
		cfg := Config{OnResult: func(FileResult) { sealed.Add(1) }}
		if _, _, err := RunGraph(context.Background(), cfg, g, inputs); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stopped dependency deadlocked its dependents")
	}
	if got := sealed.Load(); got != 3 {
		t.Fatalf("sealed %d files, want 3", got)
	}
	if len(m.seen["next"]) != 2 {
		t.Fatalf("stage next ran %v, want the two dependents only", m.seen["next"])
	}
}

// TestDependsOnParityWithIndependentInputs: declaring no dependencies
// must leave the default pipeline's results untouched (the fast path
// is the same scheduler), and a dependency chain over real corpus
// files reproduces the independent run's verdicts exactly — ordering
// constraints change scheduling, never outcomes.
func TestDependsOnParityWithIndependentInputs(t *testing.T) {
	inputs, _ := testInputs(t, spec.OpenACC, 24)
	cfg := acceptingConfig(spec.OpenACC, alwaysLLM{"valid"}, false)
	want, _ := runBG(t, cfg, inputs)

	chained := make([]Input, len(inputs))
	copy(chained, inputs)
	for i := 1; i < len(chained); i++ {
		// Chain within groups of four: three dependents per root.
		if i%4 != 0 {
			chained[i].DependsOn = []string{chained[i-1].Name}
		}
	}
	got, _ := runBG(t, cfg, chained)
	for i := range want {
		g, w := got[i], want[i]
		// Inputs differ only in DependsOn, which is not part of the
		// result; every recorded field must match.
		if g != w {
			t.Fatalf("file %d: dependency-chained run %+v != independent run %+v", i, g, w)
		}
	}
}

// Package pipeline implements the paper's validation pipeline
// (§III-C) as a stage DAG: files stream through the stages of a
// Graph — compile → execute → judge by default — each stage backed by
// its own worker pool, with no barriers between stages. A file whose
// compile finished streams straight into execution and judging while
// slower files are still compiling, and multi-file units declare
// intra-suite ordering with Input.DependsOn. A file failing an
// earlier stage has demonstrated its invalidity, so in short-circuit
// mode it skips the remaining (more expensive) stages; in record-all
// mode every file runs every stage, which is how the paper gathered
// the Part-Two data (allowing the same run to score both the pipeline
// and the agent-based judges on their own).
//
// Stages are configured by StageSpec: Config.Stages addresses the
// built-in stages by name (ValidateStages checks the names,
// MergeStages lays the specs over the defaults), and NewGraph +
// RunGraph schedule arbitrary DAGs of custom stages.
//
// Run is context-aware: cancelling the context stops the stages
// promptly and returns the results completed so far alongside the
// context's error. Callers that want results as they happen instead of
// an all-or-nothing slice set Config.OnResult, which receives each
// file's finished FileResult the moment its fate is sealed.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/judge"
	"repro/internal/machine"
	"repro/internal/testlang"
	"repro/internal/trace"
)

// Names of the built-in stages — the values StageSpec.Name,
// Config.Stages, and the Runner's WithStages option address them by.
const (
	StageCompile = "compile"
	StageExec    = "exec"
	StageJudge   = "judge"
)

// Input is one file to validate.
type Input struct {
	Name   string
	Source string
	Lang   testlang.Language
	// DependsOn names sibling inputs (by Name) this file builds on —
	// headers, modules, or earlier parts of a multi-file unit. The
	// scheduler gates the file stage-by-stage behind its
	// dependencies: it enters a stage only after every named
	// dependency has completed that stage, with no suite-wide
	// barriers. Unknown names, self-references, and dependency cycles
	// are errors; when any input declares dependencies, input names
	// must be unique.
	DependsOn []string
}

// Config configures a pipeline run.
type Config struct {
	// Tools supplies the compiler personality and machine options.
	Tools *agent.Tools
	// Judge is the stage-3 judge; nil disables the judge stage (used
	// by the stage-contribution ablation).
	Judge *judge.Judge
	// Stages overrides the built-in stages' specs by name
	// (StageCompile, StageExec, StageJudge): each entry's non-zero
	// fields replace that stage's defaults, zero fields inherit them —
	// one worker per stage, and a judge Batch of 1. Judge batching
	// only changes how prompts reach the endpoint (endpoints
	// implementing judge.BatchLLM receive whole shards in one
	// CompleteBatch call), never the verdicts. Unknown or duplicate
	// names and negative Workers/Batch values are errors returned by
	// Run. Custom stage DAGs go through NewGraph and RunGraph instead.
	Stages []StageSpec
	// RecordAll disables short-circuiting so every stage runs for
	// every file.
	RecordAll bool
	// KeepResponses retains prompt/response text in results (memory-
	// heavy for large suites; examples use it, experiments do not).
	KeepResponses bool
	// OnResult, when set, streams each file's completed FileResult as
	// its final verdict is determined — before the run finishes and in
	// completion order, not input order. It is called from stage
	// worker goroutines and must be safe for concurrent use.
	OnResult func(FileResult)
	// Tracer, when set, opens one trace per file — the root "file"
	// span, child spans named after each stage that ran for it, and a
	// "judge.batch" span under the first batched file's trace for each
	// coalesced endpoint submission — and everything downstream (judge
	// cache, remote wire, fleet routing, daemon) continues the same
	// trace through the context. Nil disables tracing; the stages then
	// pay one pointer test and nothing else.
	Tracer *trace.Tracer
}

// builtinSpecs resolves the effective specs of the default graph:
// Config.Stages laid over the one-worker defaults, with the judge
// stage dropped when no judge is configured.
func (cfg *Config) builtinSpecs() ([]StageSpec, error) {
	if err := ValidateStages(cfg.Stages); err != nil {
		return nil, err
	}
	specs := MergeStages([]StageSpec{{Name: StageCompile}, {Name: StageExec}, {Name: StageJudge}}, cfg.Stages...)
	// The judge stage is always batch-shaped: even single-file
	// submissions are one coalesced endpoint round-trip, traced as
	// "judge.batch".
	if specs[2].Batch < 1 {
		specs[2].Batch = 1
	}
	if cfg.Judge == nil {
		specs = specs[:2]
	}
	return specs, nil
}

// ValidateStages checks specs addressed at the default graph's
// built-in stages — Config.Stages, the Runner's WithStages — before
// any file runs: every name must be StageCompile, StageExec, or
// StageJudge, no name may repeat, and Workers and Batch must not be
// negative.
func ValidateStages(specs []StageSpec) error {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		switch s.Name {
		case StageCompile, StageExec, StageJudge:
		default:
			return fmt.Errorf("pipeline: unknown stage %q (the default graph has %q, %q, and %q; an unknown pipeline stage belongs in a custom graph run through RunGraph)", s.Name, StageCompile, StageExec, StageJudge)
		}
		if seen[s.Name] {
			return fmt.Errorf("pipeline: duplicate stage %q in the stage specs", s.Name)
		}
		seen[s.Name] = true
		if err := s.validate(); err != nil {
			return err
		}
	}
	return nil
}

// MergeStages lays overrides over base by stage name, in order: an
// override's non-zero fields (Workers, Batch, Observe) replace those
// of the spec sharing its name, its zero fields leave them alone, and
// an override naming no spec yet is appended. A later override thus
// refines an earlier one field-wise. base is not modified.
func MergeStages(base []StageSpec, overrides ...StageSpec) []StageSpec {
	out := append([]StageSpec(nil), base...)
	for _, o := range overrides {
		i := slices.IndexFunc(out, func(s StageSpec) bool { return s.Name == o.Name })
		if i < 0 {
			out = append(out, o)
			continue
		}
		if o.Workers != 0 {
			out[i].Workers = o.Workers
		}
		if o.Batch != 0 {
			out[i].Batch = o.Batch
		}
		if o.Observe != nil {
			out[i].Observe = o.Observe
		}
	}
	return out
}

// ParseStageWorkers parses a -stage-workers flag value — "judge=16" or
// "compile=2, exec=2, judge=32" — into one Workers-only spec per pair,
// ready for Config.Stages or the Runner's WithStages. Every N must be
// at least 1: a zero Workers field would inherit the default pool
// size instead of meaning what it says. Stage names are left to
// ValidateStages. The empty string parses to no specs.
func ParseStageWorkers(s string) ([]StageSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []StageSpec
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || err != nil {
			return nil, fmt.Errorf("pipeline: want name=N[,name=N...], got %q", kv)
		}
		name = strings.TrimSpace(name)
		if n < 1 {
			return nil, fmt.Errorf("pipeline: stage %q: %d workers, want N >= 1", name, n)
		}
		specs = append(specs, StageSpec{Name: name, Workers: n})
	}
	return specs, nil
}

// FileResult is the pipeline's record for one file.
type FileResult struct {
	Index int
	Name  string
	// Stage outcomes. When short-circuiting skipped a stage, the
	// corresponding Ran flag is false.
	CompileRan bool
	CompileOK  bool
	ExecRan    bool
	ExecOK     bool
	JudgeRan   bool
	Verdict    judge.Verdict
	// Valid is the pipeline's final verdict: every stage it ran
	// passed, and the judge (when enabled) said valid.
	Valid bool
	// Evaluation is populated only with Config.KeepResponses.
	Evaluation *judge.Evaluation
}

// Stats aggregates pipeline-run counters for the throughput bench.
type Stats struct {
	Files      int
	Compiles   int64
	Executions int64
	// JudgeCalls counts judged files; JudgeBatches counts endpoint
	// round-trips (equal unless the judge stage's Batch coalesced
	// files).
	JudgeCalls   int64
	JudgeBatches int64
}

// Run processes files through the default validation graph — compile
// → execute → judge — and returns per-file results in input order
// plus run statistics. When ctx is cancelled mid-run — or a
// context-aware judge endpoint fails — the stages drain without doing
// further work and Run returns the partial results with the first
// error; files whose processing never finished keep their zero-valued
// stage flags. A misconfigured Config (negative workers, unknown
// stage names in Stages) is an error before any file runs.
func Run(ctx context.Context, cfg Config, files []Input) ([]FileResult, Stats, error) {
	stats := Stats{Files: len(files)}
	specs, err := cfg.builtinSpecs()
	if err != nil {
		return nil, stats, err
	}
	stages, edges := builtinStages(&cfg, specs, &stats)
	g, err := NewGraph(stages, edges...)
	if err != nil {
		return nil, stats, err
	}
	results, err := runGraph(ctx, runConfig{
		onResult:     cfg.OnResult,
		tracer:       cfg.Tracer,
		judgeEnabled: cfg.Judge != nil,
	}, g, files)
	return results, stats, err
}

// builtinStages declares the paper's three stages on the Stage API,
// bound to cfg's tools and counters, in spec order (compile, exec,
// and — when a judge is configured — judge), plus the chain edges
// connecting them.
func builtinStages(cfg *Config, specs []StageSpec, stats *Stats) ([]Stage, [][2]string) {
	stages := []Stage{
		StageFunc{
			StageSpec: specs[0],
			RunFunc: func(_ context.Context, items []*Item) error {
				for _, it := range items {
					atomic.AddInt64(&stats.Compiles, 1)
					it.Compile = cfg.Tools.Personality.Compile(it.Input.Name, it.Input.Source, it.Input.Lang)
					r := it.Result()
					r.CompileRan = true
					r.CompileOK = it.Compile.OK
					if !it.Compile.OK && !cfg.RecordAll {
						it.Stop() // invalidity demonstrated; drop from pipeline
					}
				}
				return nil
			},
		},
		StageFunc{
			StageSpec: specs[1],
			// Files that compiled to no executable object (Fortran in
			// this simulation) carry no execution evidence either way,
			// so they skip straight to the judge in BOTH modes — the
			// final verdict defers to the judge exactly as finalVerdict
			// documents. Compile-failed files only reach this gate in
			// record-all mode (compile stops them otherwise).
			AppliesFunc: func(it *Item) bool {
				return it.Compile != nil && it.Compile.OK && it.Compile.Object != nil
			},
			RunFunc: func(_ context.Context, items []*Item) error {
				for _, it := range items {
					atomic.AddInt64(&stats.Executions, 1)
					it.Exec = machine.Run(it.Compile.Object, cfg.Tools.MachineOpts)
					r := it.Result()
					r.ExecRan = true
					r.ExecOK = it.Exec.ReturnCode == 0
					if !r.ExecOK && !cfg.RecordAll {
						it.Stop()
					}
				}
				return nil
			},
		},
	}
	edges := [][2]string{{specs[0].Name, specs[1].Name}}
	if cfg.Judge == nil {
		return stages, edges
	}
	stages = append(stages, StageFunc{
		StageSpec: specs[2],
		RunFunc: func(ctx context.Context, items []*Item) error {
			atomic.AddInt64(&stats.JudgeCalls, int64(len(items)))
			atomic.AddInt64(&stats.JudgeBatches, 1)
			codes := make([]string, len(items))
			infos := make([]*judge.ToolInfo, len(items))
			for i, it := range items {
				codes[i] = it.Input.Source
				info := buildToolInfo(it.Compile, it.Exec)
				infos[i] = &info
			}
			evs, err := cfg.Judge.EvaluateBatch(ctx, codes, infos)
			if err != nil {
				return err // backend or context failure; abort the run
			}
			for i, it := range items {
				r := it.Result()
				r.JudgeRan = true
				r.Verdict = evs[i].Verdict
				if cfg.KeepResponses {
					evCopy := evs[i]
					r.Evaluation = &evCopy
				}
			}
			return nil
		},
	})
	return stages, append(edges, [2]string{specs[1].Name, specs[2].Name})
}

// buildToolInfo assembles the agent prompt block from stage results.
func buildToolInfo(c *compiler.Result, r *machine.Result) judge.ToolInfo {
	info := judge.ToolInfo{}
	if c != nil {
		info.CompileRC = c.ReturnCode
		info.CompileStderr = c.Stderr
		info.CompileStdout = c.Stdout
	}
	if r != nil {
		info.Ran = true
		info.RunRC = r.ReturnCode
		info.RunStderr = r.Stderr
		info.RunStdout = r.Stdout
	}
	return info
}

// finalVerdict computes the pipeline verdict for one file.
func finalVerdict(r *FileResult, judgeEnabled bool) bool {
	if r.CompileRan && !r.CompileOK {
		return false
	}
	if r.ExecRan && !r.ExecOK {
		return false
	}
	if !r.ExecRan && r.CompileRan && r.CompileOK {
		// Compiled but not executable in the simulation (Fortran):
		// execution evidence is absent, leave the decision to the
		// judge when present.
		if !judgeEnabled {
			return true
		}
	}
	if judgeEnabled {
		return r.JudgeRan && r.Verdict == judge.Valid
	}
	return r.CompileOK && (!r.ExecRan || r.ExecOK)
}

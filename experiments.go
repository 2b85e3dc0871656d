package llm4vv

// Result types of the paper's fixed experiments, each produced by its
// Runner method (Runner.PartTwo, Runner.Ablation, ...) or
// dispatched by name through RunExperiment.

import (
	"repro/internal/genloop"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/probe"
)

// DefaultModelSeed seeds the simulated LLM for all published
// experiment numbers.
const DefaultModelSeed = 33

// PartTwoResult carries every Part-Two measurement for one dialect:
// the two agent-based judges scored alone (Tables VII-IX) and the two
// pipelines built on them (Tables IV-VI), all from the same record-all
// pipeline runs, exactly as the paper gathered them.
type PartTwoResult struct {
	// LLMJ1 / LLMJ2: agent-based judges with the direct and indirect
	// analysis prompts.
	LLMJ1 metrics.Summary
	LLMJ2 metrics.Summary
	// Pipeline1 / Pipeline2: validation-pipeline verdicts computed
	// with each judge's evaluations.
	Pipeline1 metrics.Summary
	Pipeline2 metrics.Summary
	// Direct is the non-agent judge on the same suite, for the
	// Figure 5/6 three-way comparison.
	Direct metrics.Summary
	// Stats from the first pipeline run (throughput accounting).
	Stats pipeline.Stats
}

// AblationResult carries ablations A2 and A3 for one dialect, scored
// from Part Two's agent-direct record-all pipeline run and its
// direct-judging run (DESIGN.md §6).
type AblationResult struct {
	// A2, tool information in the prompt: the same model judging the
	// same suite with the direct prompt and with the agent-direct
	// prompt, holding everything else fixed.
	WithoutTools metrics.Summary
	WithTools    metrics.Summary
	// A3, stage contribution: the pipeline with progressively more
	// stages counted — compile only, compile+execute, and the full
	// pipeline with the agent-direct judge.
	CompileOnly   metrics.Summary
	CompileAndRun metrics.Summary
	FullPipeline  metrics.Summary
}

// PipelineThroughputResult measures the short-circuiting win
// (DESIGN.md ablation A1): stage executions with and without early
// exit.
type PipelineThroughputResult struct {
	ShortCircuit pipeline.Stats
	RecordAll    pipeline.Stats
}

// GenerationResult re-exports the generation-loop outcome
// (Runner.GenerationLoop).
type GenerationResult = genloop.Result

// Issues re-exports the probe issue ids for example programs.
var Issues = []probe.Issue{
	probe.IssueDirective, probe.IssueBracket, probe.IssueUndeclared,
	probe.IssueRandom, probe.IssueTruncated, probe.IssueNone,
}

package pipeline

import (
	"context"
	"fmt"
	"time"
)

// StageSpec describes one stage of a validation chain: its identity,
// parallelism, batching, and observer hook.
//
// In Config.Stages a spec addresses a built-in stage by Name and
// overrides only its non-zero fields (zero Workers/Batch and nil
// Observe inherit the defaults; see MergeStages). In a StageFunc
// passed to RunChain a spec is the stage's complete configuration.
type StageSpec struct {
	// Name identifies the stage: it is the span name of the stage's
	// trace executions (batched stages emit "<name>.batch" carrier
	// spans instead), the label observers and per-stage metric
	// families key on, and the handle Config.Stages and the Runner's
	// WithStages option address the stage by. The
	// built-in stages are StageCompile, StageExec, and StageJudge.
	Name string
	// Workers sizes the stage's worker pool; 0 means 1. Negative
	// values are rejected before any file runs — a negative pool
	// would spin zero workers and strand every file dispatched to the
	// stage.
	Workers int
	// Batch > 1 lets one worker coalesce up to Batch already-ready
	// files into a single Run call (shards form from whatever the
	// previous stage has finished, so batching never delays a lone
	// file). 0 and 1 both submit one file per Run call, but any
	// Batch >= 1 additionally marks the stage batch-shaped: its
	// executions trace as one "<name>.batch" carrier span (with a
	// batch_size attribute) under the first batched file's trace,
	// where Batch == 0 stages open one "<name>" span per file. The
	// built-in judge stage is always batch-shaped, preserving the
	// historical "judge.batch" span even for single-file submissions.
	// Negative values are rejected before any file runs.
	Batch int
	// Observe, when set, receives the wall-clock duration of every
	// Run call, labelled with the stage name. Called from stage
	// worker goroutines; must be safe for concurrent use. When nil
	// the stage pays a single predicate check and no clock reads.
	Observe func(stage string, d time.Duration)
}

// validate rejects specs whose values would hang or misconfigure the
// scheduler. Shared by RunChain and ValidateStages so the error
// surfaces before the run, not as a stuck run.
func (s StageSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("pipeline: stage with empty name")
	}
	if s.Workers < 0 {
		return fmt.Errorf("pipeline: stage %q: negative Workers %d (a negative pool would spin zero workers and hang the stage; 0 means 1)", s.Name, s.Workers)
	}
	if s.Batch < 0 {
		return fmt.Errorf("pipeline: stage %q: negative Batch %d", s.Name, s.Batch)
	}
	return nil
}

// workers is the spec's effective pool size (the documented 0-means-1
// floor; negatives never reach here).
func (s StageSpec) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

// StageFunc is one stage of a validation chain: a spec, a run
// function, and an optional per-file gate. RunFunc receives the files
// ready for the stage — a slice of exactly one Item unless the spec
// declares a Batch — mutates each Item's stage fields and result, and
// returns an error only for run-aborting failures (a failing backend,
// a cancelled context): returning non-nil stops the whole run, exactly
// like the built-in judge stage on an endpoint error. Per-file
// failures are not errors; the stage records them on the Item's
// FileResult and calls Item.Stop to short-circuit the remaining
// stages.
type StageFunc struct {
	StageSpec
	RunFunc func(ctx context.Context, items []*Item) error
	// AppliesFunc, when set, gates the stage per file: files it
	// rejects skip the stage entirely (no Run call, span, or observer
	// sample) and proceed to the next stage, exactly as the built-in
	// exec stage skips files whose compile produced no runnable
	// object. Nil applies to every file.
	AppliesFunc func(*Item) bool
}

// validateChain rejects a stage chain the scheduler cannot run: no
// stages, an empty or repeated name, or a negative Workers/Batch.
func validateChain(stages []StageFunc) error {
	if len(stages) == 0 {
		return fmt.Errorf("pipeline: chain needs at least one stage")
	}
	for i, st := range stages {
		if err := st.validate(); err != nil {
			return err
		}
		for j := range stages[:i] {
			if stages[j].Name == st.Name {
				return fmt.Errorf("pipeline: duplicate stage name %q (stages %d and %d)", st.Name, j, i)
			}
		}
	}
	return nil
}

package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageSpec describes one stage of a validation graph: its identity,
// parallelism, batching, and observer hook.
//
// In Config.Stages a spec addresses a built-in stage by Name and
// overrides only its non-zero fields (zero Workers/Batch and nil
// Observe inherit the defaults; see MergeStages). In NewGraph a spec
// is the stage's complete configuration.
type StageSpec struct {
	// Name identifies the stage: it is the span name of the stage's
	// trace executions (batched stages emit "<name>.batch" carrier
	// spans instead), the label observers and per-stage metric
	// families key on, and the handle Config.Stages and the Runner's
	// WithStages option address the stage by. The
	// built-in stages are StageCompile, StageExec, and StageJudge.
	Name string
	// Workers sizes the stage's worker pool; 0 means 1. Negative
	// values are rejected at graph construction — a negative pool
	// would spin zero workers and strand every file dispatched to the
	// stage.
	Workers int
	// Batch > 1 lets one worker coalesce up to Batch already-ready
	// files into a single Run call (shards form from whatever the
	// upstream stages have finished, so batching never delays a lone
	// file). 0 and 1 both submit one file per Run call, but any
	// Batch >= 1 additionally marks the stage batch-shaped: its
	// executions trace as one "<name>.batch" carrier span (with a
	// batch_size attribute) under the first batched file's trace,
	// where Batch == 0 stages open one "<name>" span per file. The
	// built-in judge stage is always batch-shaped, preserving the
	// historical "judge.batch" span even for single-file submissions.
	// Negative values are rejected at graph construction.
	Batch int
	// Observe, when set, receives the wall-clock duration of every
	// Run call, labelled with the stage name. Called from stage
	// worker goroutines; must be safe for concurrent use. When nil
	// the stage pays a single predicate check and no clock reads.
	Observe func(stage string, d time.Duration)
}

// validate rejects specs whose values would hang or misconfigure the
// scheduler. Shared by NewGraph and ValidateStages so the error
// surfaces at construction, not as a stuck run.
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

// Stage is one vertex of a validation graph. Run receives the files
// ready for the stage — a slice of exactly one Item unless the spec
// declares a Batch — mutates each Item's stage fields and result, and
// returns an error only for run-aborting failures (a failing backend,
// a cancelled context): returning non-nil stops the whole run, exactly
// like the built-in judge stage on an endpoint error. Per-file
// failures are not errors; the stage records them on the Item's
// FileResult and calls Item.Stop to short-circuit the remaining
// stages.
//
// A stage may additionally implement
//
//	Applies(*Item) bool
//
// to skip files the stage has no evidence to contribute for; skipped
// files pass through without a Run call, a trace span, or an observer
// sample, exactly as the built-in exec stage skips files whose compile
// produced no runnable object.
type Stage interface {
	Spec() StageSpec
	Run(ctx context.Context, items []*Item) error
}

// applier is the optional per-file gate a Stage may implement.
type applier interface {
	Applies(*Item) bool
}

// StageFunc is the literal Stage: a spec plus a run function, with an
// optional Applies gate. The zero AppliesFunc applies to every file.
type StageFunc struct {
	StageSpec
	RunFunc func(ctx context.Context, items []*Item) error
	// AppliesFunc, when set, gates the stage per file: files it
	// rejects skip the stage entirely (no Run call, span, or observer
	// sample) and proceed downstream.
	AppliesFunc func(*Item) bool
}

// Spec implements Stage.
func (s StageFunc) Spec() StageSpec { return s.StageSpec }

// Run implements Stage.
func (s StageFunc) Run(ctx context.Context, items []*Item) error {
	return s.RunFunc(ctx, items)
}

// Applies implements the optional per-file gate.
func (s StageFunc) Applies(it *Item) bool {
	return s.AppliesFunc == nil || s.AppliesFunc(it)
}

// Graph is a validated stage DAG: stages as vertices, declared edges
// as precedence constraints. Construction (NewGraph) is where every
// structural error surfaces — duplicate or empty stage names, edges
// naming unknown stages, self-edges, duplicate edges, negative worker
// or batch counts, and cycles (detected by Kahn's algorithm) are all
// rejected — so a Graph that exists is schedulable. A Graph is
// immutable and safe to reuse across RunGraph calls.
type Graph struct {
	stages  []Stage
	specs   []StageSpec
	applies []func(*Item) bool // nil entry: stage applies to every file
	names   map[string]int
	succs   [][]int
	indeg   []int
	order   []int // one valid topological order, for introspection
}

// NewGraph validates stages and edges into a schedulable DAG. Each
// edge {from, to} names two stages by their spec names and constrains
// every file to complete from before entering to. Stages with no
// connecting edges are legal and run concurrently.
func NewGraph(stages []Stage, edges ...[2]string) (*Graph, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: graph needs at least one stage")
	}
	g := &Graph{
		stages:  stages,
		specs:   make([]StageSpec, len(stages)),
		applies: make([]func(*Item) bool, len(stages)),
		names:   make(map[string]int, len(stages)),
		succs:   make([][]int, len(stages)),
		indeg:   make([]int, len(stages)),
	}
	for i, st := range stages {
		spec := st.Spec()
		if err := spec.validate(); err != nil {
			return nil, err
		}
		if dup, ok := g.names[spec.Name]; ok {
			return nil, fmt.Errorf("pipeline: duplicate stage name %q (stages %d and %d)", spec.Name, dup, i)
		}
		g.names[spec.Name] = i
		g.specs[i] = spec
		if ap, ok := st.(applier); ok {
			g.applies[i] = ap.Applies
		}
	}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		from, ok := g.names[e[0]]
		if !ok {
			return nil, fmt.Errorf("pipeline: edge %q -> %q names unknown stage %q", e[0], e[1], e[0])
		}
		to, ok := g.names[e[1]]
		if !ok {
			return nil, fmt.Errorf("pipeline: edge %q -> %q names unknown stage %q", e[0], e[1], e[1])
		}
		if from == to {
			return nil, fmt.Errorf("pipeline: self-edge on stage %q", e[0])
		}
		if seen[[2]int{from, to}] {
			return nil, fmt.Errorf("pipeline: duplicate edge %q -> %q", e[0], e[1])
		}
		seen[[2]int{from, to}] = true
		g.succs[from] = append(g.succs[from], to)
		g.indeg[to]++
	}

	// Kahn's algorithm: repeatedly retire zero-indegree stages. Any
	// stage left unretired sits on a cycle.
	indeg := append([]int(nil), g.indeg...)
	queue := make([]int, 0, len(stages))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	g.order = make([]int, 0, len(stages))
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		g.order = append(g.order, s)
		for _, t := range g.succs[s] {
			if indeg[t]--; indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(g.order) != len(stages) {
		var cyclic []string
		for i, d := range indeg {
			if d > 0 {
				cyclic = append(cyclic, g.specs[i].Name)
			}
		}
		sort.Strings(cyclic)
		return nil, fmt.Errorf("pipeline: stage graph has a cycle through %s", strings.Join(cyclic, ", "))
	}
	return g, nil
}

// Stages returns the graph's specs in one valid topological order —
// the enumeration callers use to pre-register per-stage metric
// families or print the schedule.
func (g *Graph) Stages() []StageSpec {
	out := make([]StageSpec, len(g.order))
	for i, s := range g.order {
		out[i] = g.specs[s]
	}
	return out
}

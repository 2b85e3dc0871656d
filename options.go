package llm4vv

import (
	"log/slog"

	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/trace"
)

// Option configures a Runner at construction time.
type Option func(*Runner)

// WithBackend selects the registered LLM endpoint the Runner judges
// and generates with. The name is resolved against the backend
// registry when NewRunner runs, so an unknown name fails fast there
// rather than mid-experiment. Default: DefaultBackend.
func WithBackend(name string) Option {
	return func(r *Runner) { r.backend = name }
}

// WithSeed sets the endpoint sampling seed. Default: DefaultModelSeed,
// the seed behind every published experiment number.
func WithSeed(seed uint64) Option {
	return func(r *Runner) { r.seed = seed }
}

// WithWorkers sets the per-stage worker count of every stage graph
// the Runner schedules — the pipeline's compile, exec, and judge
// stages, and the judge stage direct-judging and panel phases run
// alone. Values below 1 are treated as 1. Default: GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n < 1 {
			n = 1
		}
		r.workers = n
	}
}

// WithStages overrides the validation pipeline's per-stage
// configuration by name: each spec addresses one built-in stage
// (pipeline.StageCompile, StageExec, StageJudge) and its non-zero
// fields replace that stage's defaults — Workers falls back to
// WithWorkers, the judge stage's Batch to the shard size, Observe to
// none. The judge spec also governs direct-judging and panel phases,
// which run the judge stage alone. Later WithStages options refine
// earlier ones field-wise
// (pipeline.MergeStages). Unknown stage names and negative values
// fail NewRunner. Scheduling knobs never change results: reports stay
// byte-identical across any worker/batch mix.
func WithStages(specs ...pipeline.StageSpec) Option {
	return func(r *Runner) { r.stages = pipeline.MergeStages(r.stages, specs...) }
}

// WithShardSize sets the judge stage's batch size in every phase:
// judge workers coalesce up to this many ready files per endpoint
// call (a single CompleteBatch call for backends implementing
// judge.BatchLLM), and the run store is checkpointed after every this
// many sealed records. Batching changes endpoint round-trips, never
// results. Values below 1 — and the default 0 — select an automatic
// size balancing worker utilisation against batching overhead.
func WithShardSize(n int) Option {
	return func(r *Runner) {
		if n < 0 {
			n = 0
		}
		r.shardSize = n
	}
}

// WithStore attaches a persistent run store: a segmented JSONL log
// (created on first use) to which every sealed per-file verdict is
// appended, keyed by (experiment phase, backend, seed, file content
// hash). NewRunner opens the store — and recovers it, skipping any
// torn final line from an interrupted run — so path problems fail
// fast; Close the Runner to release it. Combine with WithResume to
// skip work recorded in previous runs, and WithStoreOptions to tune
// the segmented log.
func WithStore(path string) Option {
	return func(r *Runner) { r.storePath = path }
}

// WithStoreOptions tunes the run store's segmented log — the seal
// threshold, sparse-index granularity, and background-merge trigger
// (see store.Options). The zero value is the production default;
// only runs with unusual shapes (huge sweeps on small machines, tests
// forcing many segments) need to change it. Takes effect only
// together with WithStore.
func WithStoreOptions(opts store.Options) Option {
	return func(r *Runner) { r.storeOpts = opts }
}

// WithResume makes experiments consult the run store before judging:
// files whose (experiment phase, backend, seed, content hash) key is
// already stored load their prior verdict and are never re-judged, so
// an interrupted sweep restarted under the same configuration redoes
// only the files that never completed — and reproduces the metrics an
// uninterrupted run would have. Requires WithStore; without a store
// the option has no effect. Default: off (a store-holding Runner
// still records, it just never skips).
func WithResume(on bool) Option {
	return func(r *Runner) { r.resume = on }
}

// WithRecordAll controls short-circuiting in ValidateSuite: true runs
// every stage for every file (how the paper gathered Part-Two data),
// false lets files that fail an early stage skip the expensive later
// ones. Experiments whose measurements require a specific mode
// (PartTwo needs record-all, PipelineThroughput measures both) ignore
// this setting. Default: false (short-circuit, the production mode).
func WithRecordAll(on bool) Option {
	return func(r *Runner) { r.recordAll = on }
}

// WithEvalCache memoises endpoint completions keyed on the full prompt
// text for the lifetime of one experiment call. Sound for
// deterministic backends (the simulated model answers a prompt
// identically every time); it saves repeated completions when several
// configurations judge the same file. Default: off.
func WithEvalCache(on bool) Option {
	return func(r *Runner) { r.evalCache = on }
}

// WithPanel sets the ensemble member spec — "a+b+c" with an optional
// ":strategy" suffix (majority, unanimous, weighted) — the panel
// experiment composes when the Runner's backend is not already an
// ensemble or a remote daemon. The default (empty) seats three copies
// of the Runner's backend, each under its own derived member seed, so
// even a single registered backend yields a genuine three-judge
// panel. The spec is validated when the panel experiment runs;
// backends named in it resolve through the registry like any other.
func WithPanel(spec string) Option {
	return func(r *Runner) { r.panelSpec = spec }
}

// WithTracer attaches a distributed tracer: every file an experiment
// processes opens its own trace (span name "file"), pipeline stages,
// cache hits, batch coalescing, ensemble member votes, and remote
// calls record child spans under it, and remote calls propagate the
// trace across the wire (X-LLM4VV-Trace / X-LLM4VV-Span headers) so
// daemon- and router-side spans join the same trace. The Runner's
// run store, when opened by this Runner, inherits the tracer for its
// seal/merge spans unless WithStoreOptions already set one. A nil
// tracer (the default) disables tracing at near-zero cost — call
// sites guard on it before building any span. The tracer's own sinks
// (JSONL writer, in-memory ring, slow-exemplar reservoir) are
// configured on the trace.Tracer itself; see trace.New.
func WithTracer(t *trace.Tracer) Option {
	return func(r *Runner) { r.tracer = t }
}

// WithLogger installs a structured logger for the Runner's operational
// warnings — today, the single warning emitted when the run store's
// write path fails mid-sweep and the Runner degrades to store-less
// operation. Results are unaffected by degradation; the warning (and
// the error Runner.Close returns) is how the loss of durability
// surfaces. Default: nil, which discards the warnings.
func WithLogger(l *slog.Logger) Option {
	return func(r *Runner) { r.logger = l }
}

// WithProgress installs a streaming progress callback. Experiments
// invoke it once per completed file, from worker goroutines, as stages
// finish — it must be safe for concurrent use and should return
// quickly. Default: no callback.
func WithProgress(fn ProgressFunc) Option {
	return func(r *Runner) { r.progress = fn }
}

// ProgressFunc receives streaming progress events.
type ProgressFunc func(Progress)

// Progress is one streaming event from a running experiment.
type Progress struct {
	// Phase names the experiment phase emitting the event (for
	// example "direct-probing" or "pipeline/agent-direct").
	Phase string
	// File is the file whose processing just completed.
	File string
	// Done files out of Total have completed in this phase.
	Done  int
	Total int
}

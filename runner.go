package llm4vv

import (
	"context"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/genloop"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/trace"
)

// Runner is the configured entry point to every experiment: a backend
// selection, a sampling seed, worker counts, sharding, a run store,
// and streaming hooks, shared by concurrent experiment calls.
// Construct one with NewRunner and functional options; the zero value
// is not usable.
//
// A Runner is immutable after construction and safe for concurrent use
// — a service can hold one Runner and dispatch many experiments over
// it, each governed by its own context. A Runner holding a run store
// (WithStore) should be Closed when done with it.
type Runner struct {
	backend   string
	seed      uint64
	workers   int
	stages    []pipeline.StageSpec
	shardSize int
	recordAll bool
	evalCache bool
	progress  ProgressFunc
	storePath string
	storeOpts store.Options
	store     *store.Store
	resume    bool
	panelSpec string
	tracer    *trace.Tracer
	logger    *slog.Logger

	// health is the shared store-degradation latch: withBackend copies
	// Runners by value, so the latch must live behind a pointer for a
	// degradation seen by one copy to stop the others' writes too.
	health *storeHealth
}

// storeHealth latches the run store's first write failure. Once
// tripped, the Runner stops writing to the store (degrading to
// store-less operation — results keep flowing) and Runner.Close
// surfaces the remembered error.
type storeHealth struct {
	degraded atomic.Bool
	mu       sync.Mutex
	err      error
}

// trip records the first failure, reporting true exactly once so the
// caller can log the degradation warning a single time.
func (h *storeHealth) trip(err error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return false
	}
	h.err = err
	h.degraded.Store(true)
	return true
}

func (h *storeHealth) failure() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// NewRunner builds a Runner from options, validating the backend name
// against the registry — and opening the run store, when one is
// configured — so misconfiguration fails here rather than
// mid-experiment.
func NewRunner(opts ...Option) (*Runner, error) {
	r := &Runner{
		backend: DefaultBackend,
		seed:    DefaultModelSeed,
		workers: runtime.GOMAXPROCS(0),
		health:  &storeHealth{},
	}
	for _, opt := range opts {
		opt(r)
	}
	if _, err := NewBackend(r.backend, r.seed); err != nil {
		return nil, err
	}
	if err := pipeline.ValidateStages(r.stages); err != nil {
		return nil, err
	}
	if r.storePath != "" {
		opts := r.storeOpts
		if opts.Tracer == nil {
			opts.Tracer = r.tracer
		}
		st, err := store.OpenWith(r.storePath, opts)
		if err != nil {
			return nil, err
		}
		r.store = st
	}
	return r, nil
}

// Close releases the Runner's run store, surfacing the first write
// failure from the store's lifetime — whether remembered by the store
// itself or latched when the Runner degraded to store-less operation
// mid-sweep. It is a no-op for store-less Runners.
func (r *Runner) Close() error {
	if r.store == nil {
		return nil
	}
	err := r.store.Close()
	if err == nil {
		// A degradation latched by another backend copy of this Runner
		// still counts: the caller asked for durability it did not get.
		err = r.health.failure()
	}
	return err
}

// StoreDegraded reports whether the Runner abandoned its run store
// after a write failure (see StoreErr for the failure itself).
// Experiments keep producing results after degradation; only
// durability — resume and dedup across runs — is lost.
func (r *Runner) StoreDegraded() bool {
	return r.health.degraded.Load()
}

// StoreErr returns the write failure that degraded the run store, or
// nil while the store is healthy.
func (r *Runner) StoreErr() error {
	return r.health.failure()
}

// storeOK reports whether store writes should still be attempted.
func (r *Runner) storeOK() bool {
	return r.store != nil && !r.health.degraded.Load()
}

// degradeStore latches a store write failure: the first caller logs
// the single degradation warning, every caller afterwards finds the
// latch already tripped and skips store writes entirely. The sweep
// continues store-less — losing durability, never results.
func (r *Runner) degradeStore(err error) {
	if !r.health.trip(err) {
		return
	}
	if r.logger != nil {
		r.logger.Warn("llm4vv: run store write failed; continuing store-less (results unaffected, durability lost)",
			"path", r.storePath, "error", err.Error())
	}
}

// withBackend returns a copy of the Runner aimed at another registered
// backend, sharing the store — how the compare scenario sweeps every
// backend through one configuration.
func (r *Runner) withBackend(name string) *Runner {
	r2 := *r
	r2.backend = name
	return &r2
}

// pipelineStages resolves the per-stage specs for one pipeline run
// over n files: WithWorkers and the shard size supply the defaults,
// the WithStages overrides refine them by name.
func (r *Runner) pipelineStages(n int) []pipeline.StageSpec {
	return pipeline.MergeStages([]pipeline.StageSpec{
		{Name: pipeline.StageCompile, Workers: r.workers},
		{Name: pipeline.StageExec, Workers: r.workers},
		{Name: pipeline.StageJudge, Workers: r.workers, Batch: r.shardSizeFor(n)},
	}, r.stages...)
}

// judgeSpec is the Runner's judge StageSpec for an n-file run: the one
// stage direct-judging phases run on, and the record count between
// the run store's checkpoints in every phase.
func (r *Runner) judgeSpec(n int) pipeline.StageSpec {
	return r.pipelineStages(n)[2]
}

// newLLM constructs a fresh endpoint for one experiment call. The
// backend name was validated at construction — NewRunner's NewBackend
// probe errors on unknown names and nil-producing factories alike —
// so the registry lookup here cannot fail.
func (r *Runner) newLLM() judge.LLM {
	llm, _ := NewBackend(r.backend, r.seed)
	if r.evalCache {
		llm = judge.Cached(llm)
	}
	return llm
}

// tracker counts completed files for one experiment phase and relays
// them to the Runner's progress callback.
type tracker struct {
	fn    ProgressFunc
	phase string
	total int
	done  atomic.Int64
}

func (r *Runner) track(phase string, total int) *tracker {
	return &tracker{fn: r.progress, phase: phase, total: total}
}

func (t *tracker) file(name string) {
	if t.fn == nil {
		return
	}
	t.fn(Progress{Phase: t.phase, File: name, Done: int(t.done.Add(1)), Total: t.total})
}

// shardSizeFor resolves the judge stage's default batch size for an
// n-file workload: the WithShardSize override when set, otherwise a
// batch small enough that every judge worker gets several to take
// (load balance) but large enough to amortise per-call overhead.
func (r *Runner) shardSizeFor(n int) int {
	if r.shardSize > 0 {
		return r.shardSize
	}
	workers := r.workers
	if workers < 1 {
		workers = 1
	}
	shard := n / (workers * 4)
	if shard < 1 {
		shard = 1
	}
	if shard > 64 {
		shard = 64
	}
	return shard
}

// flushStore checkpoints the write-behind run store — called at batch
// and phase boundaries so a crash between checkpoints loses at most
// the records buffered since the last one. A failed checkpoint
// degrades the Runner to store-less operation.
func (r *Runner) flushStore() {
	if !r.storeOK() {
		return
	}
	if err := r.store.Flush(); err != nil {
		r.degradeStore(err)
	}
}

// hashSources digests every input's source for store keys — skipped
// entirely (nil) on store-less Runners, where the hashes would be
// dead work on every experiment.
func (r *Runner) hashSources(n int, source func(i int) string) []string {
	if r.store == nil {
		return nil
	}
	hashes := make([]string, n)
	for i := range hashes {
		hashes[i] = store.HashSource(source(i))
	}
	return hashes
}

// storedRecords returns, per file, the prior record under the given
// experiment phase — all nil unless the Runner both holds a store and
// was asked to resume.
func (r *Runner) storedRecords(phase string, n int, hashes []string) []*store.Record {
	prior := make([]*store.Record, n)
	if r.store == nil || !r.resume {
		return prior
	}
	for i, h := range hashes {
		if rec, ok := r.store.Get(store.Key{Experiment: phase, Backend: r.backend, Seed: r.seed, FileHash: h}); ok {
			recCopy := rec
			prior[i] = &recCopy
		}
	}
	return prior
}

// putRecord appends a sealed result to the run store, when one is
// configured and still healthy. An append failure degrades the Runner
// to store-less operation (one logged warning, error surfaced by
// Runner.Close) — an experiment keeps producing results even when
// durability is lost mid-run.
func (r *Runner) putRecord(rec store.Record) {
	if !r.storeOK() {
		return
	}
	if err := r.store.Put(rec); err != nil {
		r.degradeStore(err)
	}
}

// verdictFromName parses a stored verdict string back into the judge
// type (the inverse of judge.Verdict.String).
func verdictFromName(s string) judge.Verdict {
	switch s {
	case "valid":
		return judge.Valid
	case "invalid":
		return judge.Invalid
	default:
		return judge.Unparsable
	}
}

// phase is one store-aware experiment phase, run by runPhase.
type phase struct {
	// name labels the phase's progress events; key is its run-store
	// experiment phase — name, unless the phase's records must not mix
	// with another mode's.
	name, key string
	inputs    []pipeline.Input
	// run processes the files the store could not supply through a
	// stage graph. cfg carries the run-level hooks (store sink,
	// progress, tracer); orig maps a pending file's index back into
	// inputs.
	run func(cfg pipeline.Config, pending []pipeline.Input, orig []int) ([]pipeline.FileResult, pipeline.Stats, error)
	// load, when set, receives each resumed file's stored record
	// before anything runs; its error (a corrupt record) fails the
	// phase before any endpoint work.
	load func(i int, rec store.Record) error
	// extend, when set, adds phase-specific fields to file i's fresh
	// record (the panel's member votes).
	extend func(i int, rec *store.Record)
}

// runPhase runs one experiment phase against the run store; every
// stored phase goes through it. With resume on, files already stored
// under the phase key skip the graph entirely and reconstruct their
// FileResult from the record; the rest run through ph.run and append
// to the store the moment their fate is sealed. The store is
// checkpointed (Flush) after every judge-batch-size of records and at
// phase end, so an interrupted run loses at most the records sealed
// since the last checkpoint. Returned results are in input order;
// Stats counts only the work actually performed, which is the point
// of resuming.
func (r *Runner) runPhase(ctx context.Context, ph phase) ([]pipeline.FileResult, pipeline.Stats, error) {
	inputs := ph.inputs
	tr := r.track(ph.name, len(inputs))
	hashes := r.hashSources(len(inputs), func(i int) string { return inputs[i].Source })
	prior := r.storedRecords(ph.key, len(inputs), hashes)

	results := make([]pipeline.FileResult, len(inputs))
	var pending []pipeline.Input
	var orig []int
	for i, in := range inputs {
		rec := prior[i]
		if rec == nil {
			orig = append(orig, i)
			pending = append(pending, in)
			continue
		}
		if ph.load != nil {
			if err := ph.load(i, *rec); err != nil {
				return nil, pipeline.Stats{Files: len(inputs)}, err
			}
		}
		results[i] = pipeline.FileResult{
			Index: i, Name: in.Name,
			CompileRan: rec.CompileRan, CompileOK: rec.CompileOK,
			ExecRan: rec.ExecRan, ExecOK: rec.ExecOK,
			JudgeRan: rec.JudgeRan, Verdict: verdictFromName(rec.Verdict),
			Valid: rec.Valid,
		}
		tr.file(in.Name)
	}
	if len(pending) == 0 {
		return results, pipeline.Stats{Files: len(inputs)}, ctx.Err()
	}

	every := int64(r.judgeSpec(len(pending)).Batch)
	var stored atomic.Int64
	res, st, err := ph.run(pipeline.Config{
		Tracer: r.tracer,
		OnResult: func(fr pipeline.FileResult) {
			if r.store != nil {
				i := orig[fr.Index]
				rec := store.Record{
					Experiment: ph.key, Backend: r.backend, Seed: r.seed,
					FileHash: hashes[i], Name: fr.Name,
					CompileRan: fr.CompileRan, CompileOK: fr.CompileOK,
					ExecRan: fr.ExecRan, ExecOK: fr.ExecOK,
					JudgeRan: fr.JudgeRan, Verdict: fr.Verdict.String(),
					Valid: fr.Valid,
				}
				if ph.extend != nil {
					ph.extend(i, &rec)
				}
				r.putRecord(rec)
				if stored.Add(1)%every == 0 {
					r.flushStore()
				}
			}
			tr.file(fr.Name)
		},
	}, pending, orig)
	for k, fr := range res {
		fr.Index = orig[k]
		results[fr.Index] = fr
	}
	st.Files = len(inputs)
	r.flushStore()
	return results, st, err
}

// runPipeline runs one pipeline-backed phase: the compile → execute →
// judge graph, with runPhase's resume and store checkpoints.
func (r *Runner) runPipeline(ctx context.Context, name string, jd *judge.Judge, tools *agent.Tools, recordAll bool, inputs []pipeline.Input) ([]pipeline.FileResult, pipeline.Stats, error) {
	key := name
	if recordAll {
		// Short-circuit and record-all runs agree on verdicts but not
		// on which stages ran, so their records must not mix.
		key += "+record-all"
	}
	return r.runPhase(ctx, phase{name: name, key: key, inputs: inputs,
		run: func(cfg pipeline.Config, pending []pipeline.Input, _ []int) ([]pipeline.FileResult, pipeline.Stats, error) {
			cfg.Tools, cfg.Judge, cfg.RecordAll = tools, jd, recordAll
			cfg.Stages = r.pipelineStages(len(pending))
			return pipeline.Run(ctx, cfg, pending)
		}})
}

// judgeSuite runs a direct-judging phase on a one-stage graph whose
// only stage is the Runner's judge stage (judgeSpec): each ready batch
// goes to j.EvaluateBatch in one call — one CompleteBatch for endpoints
// implementing judge.BatchLLM — with tool information from info when
// set. seal, when set, vets file i's evaluation before the file seals;
// its error (the panel's vote parse rejecting a single-judge response)
// aborts the run before that batch reaches the store. Resumed files
// need no batch coalescing: runPhase filters them out before the graph
// runs, and the ready queue fills whole batches.
func (r *Runner) judgeSuite(ctx context.Context, ph phase, j *judge.Judge, info func(in pipeline.Input) *judge.ToolInfo, seal func(i int, ev judge.Evaluation) error) ([]pipeline.FileResult, error) {
	ph.run = func(cfg pipeline.Config, pending []pipeline.Input, orig []int) ([]pipeline.FileResult, pipeline.Stats, error) {
		g, err := pipeline.NewGraph([]pipeline.Stage{pipeline.StageFunc{
			StageSpec: r.judgeSpec(len(pending)),
			RunFunc: func(ctx context.Context, items []*pipeline.Item) error {
				codes := make([]string, len(items))
				var infos []*judge.ToolInfo
				if info != nil {
					infos = make([]*judge.ToolInfo, len(items))
				}
				for k, it := range items {
					codes[k] = it.Input.Source
					if info != nil {
						infos[k] = info(it.Input)
					}
				}
				evs, err := j.EvaluateBatch(ctx, codes, infos)
				if err != nil {
					return err
				}
				for k, it := range items {
					if seal != nil {
						if err := seal(orig[it.Index], evs[k]); err != nil {
							return err
						}
					}
					fr := it.Result()
					fr.JudgeRan, fr.Verdict = true, evs[k].Verdict
				}
				return nil
			},
		}})
		if err != nil {
			return nil, pipeline.Stats{}, err
		}
		return pipeline.RunGraph(ctx, cfg, g, pending)
	}
	results, _, err := r.runPhase(ctx, ph)
	return results, err
}

// judgeDirect runs one direct-judging phase over the suite and scores
// each file's verdict; info, when set, supplies per-file tool
// information (the agent-info ablation).
func (r *Runner) judgeDirect(ctx context.Context, name string, j *judge.Judge, suite []probe.ProbedFile, info func(in pipeline.Input) *judge.ToolInfo) ([]metrics.Outcome, error) {
	results, err := r.judgeSuite(ctx, phase{name: name, key: name, inputs: suiteInputs(suite)}, j, info, nil)
	if err != nil {
		return nil, err
	}
	outcomes := make([]metrics.Outcome, len(results))
	for i, fr := range results {
		outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: fr.Verdict == judge.Valid}
	}
	return outcomes, nil
}

// suiteInputs lists a probed suite as pipeline inputs.
func suiteInputs(suite []probe.ProbedFile) []pipeline.Input {
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}
	return inputs
}

// DirectProbing is the Part-One experiment: judge every file of the
// suite with the direct analysis prompt (no tools, no pipeline) and
// score the verdicts. It reproduces Tables I and II, and its summaries
// aggregate into Table III.
func (r *Runner) DirectProbing(ctx context.Context, s SuiteSpec) (metrics.Summary, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return metrics.Summary{}, err
	}
	j := &judge.Judge{LLM: r.newLLM(), Style: judge.Direct, Dialect: s.Dialect}
	outcomes, err := r.judgeDirect(ctx, "direct-probing", j, suite, nil)
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Score(s.Dialect, outcomes), nil
}

// ValidateSuite streams a probed suite through the compile → execute →
// judge pipeline with the given judge style, honouring the Runner's
// worker, shard, record-all, store, and progress settings. It is the
// generic workload behind the fixed experiments and the natural entry
// point for new scenarios.
func (r *Runner) ValidateSuite(ctx context.Context, s SuiteSpec, style judge.Style) ([]pipeline.FileResult, pipeline.Stats, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return nil, pipeline.Stats{}, err
	}
	jd := &judge.Judge{LLM: r.newLLM(), Style: style, Dialect: s.Dialect}
	return r.runPipeline(ctx, "pipeline/"+style.String(), jd, agent.NewTools(s.Dialect), r.recordAll, suiteInputs(suite))
}

// PartTwo executes the Part-Two experiment for one dialect: both
// agent-based judges and both pipelines scored from the same
// record-all pipeline runs, exactly as the paper gathered them (the
// record-all requirement is inherent to the measurement, so the
// Runner's record-all option does not apply here).
func (r *Runner) PartTwo(ctx context.Context, s SuiteSpec) (PartTwoResult, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return PartTwoResult{}, err
	}
	inputs := suiteInputs(suite)
	llm := r.newLLM()
	tools := agent.NewTools(s.Dialect)

	var res PartTwoResult
	run := func(style judge.Style) (judgeSum, pipeSum metrics.Summary, stats pipeline.Stats, err error) {
		jd := &judge.Judge{LLM: llm, Style: style, Dialect: s.Dialect}
		results, st, err := r.runPipeline(ctx, "part2/"+style.String(), jd, tools, true, inputs)
		if err != nil {
			return metrics.Summary{}, metrics.Summary{}, st, err
		}
		judgeOut := make([]metrics.Outcome, len(results))
		pipeOut := make([]metrics.Outcome, len(results))
		for i, fr := range results {
			judgeOut[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: fr.Verdict == judge.Valid}
			pipeOut[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: fr.Valid}
		}
		return metrics.Score(s.Dialect, judgeOut), metrics.Score(s.Dialect, pipeOut), st, nil
	}
	if res.LLMJ1, res.Pipeline1, res.Stats, err = run(judge.AgentDirect); err != nil {
		return res, err
	}
	if res.LLMJ2, res.Pipeline2, _, err = run(judge.AgentIndirect); err != nil {
		return res, err
	}

	// The non-agent judge on the same suite (Figures 5/6 baseline).
	direct := &judge.Judge{LLM: llm, Style: judge.Direct, Dialect: s.Dialect}
	outcomes, err := r.judgeDirect(ctx, "part2/direct", direct, suite, nil)
	if err != nil {
		return res, err
	}
	res.Direct = metrics.Score(s.Dialect, outcomes)
	return res, nil
}

// AblationStages runs ablation A3 (stage contribution) on the suite.
func (r *Runner) AblationStages(ctx context.Context, s SuiteSpec) (AblationStagesResult, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return AblationStagesResult{}, err
	}
	tools := agent.NewTools(s.Dialect)
	inputs := suiteInputs(suite)

	score := func(phase string, judgeOn, execOn bool) (metrics.Summary, error) {
		var jd *judge.Judge
		if judgeOn {
			jd = &judge.Judge{LLM: r.newLLM(), Style: judge.AgentDirect, Dialect: s.Dialect}
		}
		results, _, err := r.runPipeline(ctx, "ablation-stages/"+phase, jd, tools, true, inputs)
		if err != nil {
			return metrics.Summary{}, err
		}
		out := make([]metrics.Outcome, len(results))
		for i, fr := range results {
			valid := fr.CompileOK
			if execOn && fr.ExecRan {
				valid = valid && fr.ExecOK
			}
			if judgeOn {
				valid = valid && fr.Verdict == judge.Valid
			}
			out[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: valid}
		}
		return metrics.Score(s.Dialect, out), nil
	}
	var res AblationStagesResult
	if res.CompileOnly, err = score("compile", false, false); err != nil {
		return res, err
	}
	if res.CompileAndRun, err = score("compile+run", false, true); err != nil {
		return res, err
	}
	if res.FullPipeline, err = score("full", true, true); err != nil {
		return res, err
	}
	return res, nil
}

// AblationAgentInfo runs ablation A2 (tool information in the prompt).
func (r *Runner) AblationAgentInfo(ctx context.Context, s SuiteSpec) (AblationAgentInfoResult, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return AblationAgentInfoResult{}, err
	}
	llm := r.newLLM()
	tools := agent.NewTools(s.Dialect)
	direct := &judge.Judge{LLM: llm, Style: judge.Direct, Dialect: s.Dialect}
	agentJudge := &judge.Judge{LLM: llm, Style: judge.AgentDirect, Dialect: s.Dialect}

	without, err := r.judgeDirect(ctx, "ablation-agent-info/direct", direct, suite, nil)
	if err != nil {
		return AblationAgentInfoResult{}, err
	}
	with, err := r.judgeDirect(ctx, "ablation-agent-info/agent", agentJudge, suite, func(in pipeline.Input) *judge.ToolInfo {
		outcome := tools.Gather(in.Name, in.Source, in.Lang)
		info := outcome.Info
		return &info
	})
	if err != nil {
		return AblationAgentInfoResult{}, err
	}
	return AblationAgentInfoResult{
		WithoutTools: metrics.Score(s.Dialect, without),
		WithTools:    metrics.Score(s.Dialect, with),
	}, nil
}

// PipelineThroughput runs ablation A1 (short-circuiting) on the suite,
// measuring stage executions with and without early exit. Throughput
// is a measurement of work performed, so this experiment deliberately
// bypasses the run store — resuming a throughput run would measure
// the resume, not the pipeline.
func (r *Runner) PipelineThroughput(ctx context.Context, s SuiteSpec) (PipelineThroughputResult, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return PipelineThroughputResult{}, err
	}
	inputs := suiteInputs(suite)
	tools := agent.NewTools(s.Dialect)
	var out PipelineThroughputResult
	for _, recordAll := range []bool{false, true} {
		tr := r.track("throughput", len(inputs))
		_, st, err := pipeline.Run(ctx, pipeline.Config{
			Tools:     tools,
			Judge:     &judge.Judge{LLM: r.newLLM(), Style: judge.AgentDirect, Dialect: s.Dialect},
			Stages:    r.pipelineStages(len(inputs)),
			RecordAll: recordAll,
			OnResult:  func(fr pipeline.FileResult) { tr.file(fr.Name) },
		}, inputs)
		if err != nil {
			return out, err
		}
		if recordAll {
			out.RecordAll = st
		} else {
			out.ShortCircuit = st
		}
	}
	return out, nil
}

// GenerationLoop executes the paper's future-work experiment
// (DESIGN.md E1): the backend authors candidate tests per feature and
// the validation pipeline filters them. Backends that cannot author
// tests (no GenerateTest method) fall back to the default simulated
// author, which alone discloses the ground-truth defect labels the
// filter-quality counters require.
func (r *Runner) GenerationLoop(ctx context.Context, d spec.Dialect, perFeature int) (*GenerationResult, error) {
	cfg := genloop.Config{
		Dialect:     d,
		PerFeature:  perFeature,
		MaxAttempts: 4,
		ModelSeed:   r.seed,
		JudgeStyle:  judge.AgentDirect,
	}
	if author, ok := r.newLLM().(genloop.Author); ok {
		cfg.Author = author
	}
	return genloop.Run(ctx, cfg)
}

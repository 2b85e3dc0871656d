package llm4vv

import (
	"context"
	"log/slog"
	"runtime"
	"strconv"
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

// shardSizeFor resolves the Runner's shard size for an n-file
// workload: the WithShardSize override when set, otherwise a chunk
// small enough that every worker gets several shards to steal (load
// balance) but large enough to amortise per-shard batching overhead.
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

// forEachShard is the Runner's sharded scheduler: [0,n) is split into
// contiguous shards of shardSizeFor(n) files, and the Runner's workers
// claim shards off a shared cursor (chunked work stealing — a fast
// worker simply claims more shards). fn(start, end) processes one
// shard and streams its results as it goes; the first error stops the
// scheduler, and a cancelled context stops it between shards. Shard
// boundaries never affect results: fn writes each file's outcome to
// its own slot, so any schedule assembles the same output.
func (r *Runner) forEachShard(ctx context.Context, n int, fn func(start, end int) error) error {
	return r.forEachShardWorkers(ctx, n, func() (func(start, end int) error, func() error) {
		return fn, nil
	})
}

// forEachShardWorkers is forEachShard with per-worker state: each
// scheduler worker calls newWorker once for its own (fn, flush) pair,
// so fn can accumulate work across the shards that worker claims —
// the mechanism behind cross-shard judge-batch coalescing — and flush
// (optional) runs when the worker exhausts the cursor, submitting
// whatever its accumulator still holds. flush is skipped on error or
// cancellation: a stopping run must not submit new endpoint work.
func (r *Runner) forEachShardWorkers(ctx context.Context, n int, newWorker func() (fn func(start, end int) error, flush func() error)) error {
	if n == 0 {
		return ctx.Err()
	}
	shard := r.shardSizeFor(n)
	shards := (n + shard - 1) / shard
	workers := r.workers
	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	var firstErr error
	var errOnce sync.Once
	var stop atomic.Bool
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn, flush := newWorker()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				start := int(cursor.Add(int64(shard))) - shard
				if start >= n {
					// Re-check for a concurrent failure or cancellation:
					// flush submits new endpoint work, which a stopping
					// run must not do.
					if flush != nil && !stop.Load() && ctx.Err() == nil {
						if err := flush(); err != nil {
							fail(err)
						}
					}
					return
				}
				end := start + shard
				if end > n {
					end = n
				}
				if err := fn(start, end); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// judgeSharded drives one judge over [0,n) with the sharded
// scheduler, coalescing judge batches across shard boundaries: files
// the skip filter passes over (resume hits) thin a shard out, and
// instead of submitting the undersized remainder alone, each worker
// carries it into the next shard it claims until a full batch of
// shardSizeFor(n) files forms — so a heavily-resumed run still
// reaches the endpoint in full CompleteBatch calls instead of a
// trickle of fragments. The trailing partial batch is submitted by
// the worker's flush. Batching never changes verdicts (judging is
// per-prompt deterministic), only how prompts are grouped on the
// wire.
//
// skip(i) reports whether file i needs no judging (sealing resumed
// files itself); a skip error — a corrupt stored record — stops the
// scheduler like any judging error, before further endpoint work.
// name(i) names file i for progress-independent concerns (today: the
// "name" attribute on per-file trace spans). input(i) supplies the
// code and optional tool info for file i (infos are forwarded to
// EvaluateBatch only when withInfo is set); seal(i, ev) seals file
// i's freshly judged evaluation and may return a store record for it
// — the whole batch's records land in one PutAll under one store
// lock, followed by one Flush checkpoint, so a crash re-judges at
// most one batch per worker.
//
// With a tracer configured (WithTracer), each judged file opens its
// own per-file trace root, and every endpoint submission opens a
// "judge.batch" carrier span under the batch's first file — so the
// remote spans a batched call produces attach to a trace even though
// the batch serves many; the carrier's trace names the batch size.
func (r *Runner) judgeSharded(ctx context.Context, j *judge.Judge, n int, withInfo bool,
	skip func(i int) (bool, error),
	name func(i int) string,
	input func(i int) (code string, info *judge.ToolInfo),
	seal func(i int, ev judge.Evaluation) (*store.Record, error)) error {
	target := r.shardSizeFor(n)
	return r.forEachShardWorkers(ctx, n, func() (func(start, end int) error, func() error) {
		var idx []int
		var codes []string
		var infos []*judge.ToolInfo
		var spans []*trace.Span
		var recs []store.Record
		submit := func() error {
			if len(idx) == 0 {
				return nil
			}
			var infoArg []*judge.ToolInfo
			if withInfo {
				infoArg = infos
			}
			jctx := ctx
			var bspan *trace.Span
			if len(spans) > 0 && spans[0] != nil {
				jctx, bspan = trace.Start(trace.ContextWith(ctx, spans[0]), "judge.batch")
				bspan.SetAttr("batch_size", strconv.Itoa(len(idx)))
			}
			evs, err := j.EvaluateBatch(jctx, codes, infoArg)
			bspan.End()
			if err != nil {
				for _, sp := range spans {
					sp.SetAttr("error", err.Error())
					sp.End()
				}
				return err
			}
			recs = recs[:0]
			for k, ev := range evs {
				if sp := spanAt(spans, k); sp != nil {
					sp.SetAttr("verdict", ev.Verdict.String())
					sp.End()
				}
				rec, err := seal(idx[k], ev)
				if err != nil {
					for kk := k + 1; kk < len(spans); kk++ {
						spans[kk].End()
					}
					return err
				}
				if rec != nil {
					recs = append(recs, *rec)
				}
			}
			if r.storeOK() && len(recs) > 0 {
				// Sealed-batch append failures degrade like putRecord's:
				// the Runner goes store-less with a logged warning and
				// Runner.Close surfaces the error; the run itself keeps
				// producing results.
				if err := r.store.PutAll(recs); err != nil {
					r.degradeStore(err)
				} else {
					r.flushStore()
				}
			}
			idx, codes, infos, spans = idx[:0], codes[:0], infos[:0], spans[:0]
			return nil
		}
		fn := func(start, end int) error {
			for i := start; i < end; i++ {
				skipped, err := skip(i)
				if err != nil {
					return err
				}
				if skipped {
					continue
				}
				code, info := input(i)
				idx = append(idx, i)
				codes = append(codes, code)
				if withInfo {
					infos = append(infos, info)
				}
				if r.tracer != nil {
					_, sp := r.tracer.StartTrace(ctx, "file")
					sp.SetAttr("name", name(i))
					spans = append(spans, sp)
				}
			}
			if len(idx) >= target {
				return submit()
			}
			return nil
		}
		return fn, submit
	})
}

// spanAt indexes a possibly-empty span slice: judgeSharded only fills
// spans when a tracer is configured, so batch loops index through this
// nil-tolerant accessor instead.
func spanAt(spans []*trace.Span, k int) *trace.Span {
	if k < len(spans) {
		return spans[k]
	}
	return nil
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

// judgeDirect runs a judge over every suite file with the sharded
// scheduler, submitting prompts in coalesced batches (endpoints
// implementing judge.BatchLLM receive whole batches in single calls;
// undersized shard remainders merge across shards — see judgeSharded)
// and streaming per-file progress as verdicts seal. With a store
// configured, sealed verdicts append as each batch completes; with
// resume on, files already stored under this phase are loaded instead
// of judged.
func (r *Runner) judgeDirect(ctx context.Context, phase string, j *judge.Judge, suite []probe.ProbedFile, infoFor func(pf probe.ProbedFile) *judge.ToolInfo) ([]metrics.Outcome, error) {
	tr := r.track(phase, len(suite))
	hashes := r.hashSources(len(suite), func(i int) string { return suite[i].Source })
	prior := r.storedRecords(phase, len(suite), hashes)
	outcomes := make([]metrics.Outcome, len(suite))
	err := r.judgeSharded(ctx, j, len(suite), infoFor != nil,
		func(i int) (bool, error) {
			rec := prior[i]
			if rec == nil {
				return false, nil
			}
			outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: verdictFromName(rec.Verdict) == judge.Valid}
			tr.file(suite[i].Name)
			return true, nil
		},
		func(i int) string { return suite[i].Name },
		func(i int) (string, *judge.ToolInfo) {
			if infoFor != nil {
				return suite[i].Source, infoFor(suite[i])
			}
			return suite[i].Source, nil
		},
		func(i int, ev judge.Evaluation) (*store.Record, error) {
			outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: ev.Verdict == judge.Valid}
			tr.file(suite[i].Name)
			if r.store == nil {
				return nil, nil
			}
			return &store.Record{
				Experiment: phase, Backend: r.backend, Seed: r.seed,
				FileHash: hashes[i], Name: suite[i].Name,
				JudgeRan: true, Verdict: ev.Verdict.String(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}

// runPipeline is the store-aware wrapper around pipeline.Run shared
// by every pipeline-backed experiment. With resume on, files already
// stored under phase skip the pipeline entirely and reconstruct their
// FileResult from the record; the rest stream through the staged
// pipeline (judging in shards of the Runner's shard size) and append
// to the store the moment their fate is sealed, so an interrupted run
// loses at most in-flight files. Returned results are in input order;
// Stats counts only the work actually performed, which is the point
// of resuming.
func (r *Runner) runPipeline(ctx context.Context, phase string, jd *judge.Judge, tools *agent.Tools, recordAll bool, inputs []pipeline.Input) ([]pipeline.FileResult, pipeline.Stats, error) {
	tr := r.track(phase, len(inputs))
	storePhase := phase
	if recordAll {
		// Short-circuit and record-all runs agree on verdicts but not
		// on which stages ran, so their records must not mix.
		storePhase += "+record-all"
	}
	hashes := r.hashSources(len(inputs), func(i int) string { return inputs[i].Source })
	prior := r.storedRecords(storePhase, len(inputs), hashes)

	results := make([]pipeline.FileResult, len(inputs))
	var pending []pipeline.Input
	var origIdx []int
	for i, in := range inputs {
		rec := prior[i]
		if rec == nil {
			origIdx = append(origIdx, i)
			pending = append(pending, in)
			continue
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
	stats := pipeline.Stats{Files: len(inputs)}
	if len(pending) == 0 {
		return results, stats, ctx.Err()
	}

	res, st, err := pipeline.Run(ctx, pipeline.Config{
		Tools:     tools,
		Judge:     jd,
		Stages:    r.pipelineStages(len(pending)),
		RecordAll: recordAll,
		Tracer:    r.tracer,
		OnResult: func(fr pipeline.FileResult) {
			if r.store != nil {
				r.putRecord(store.Record{
					Experiment: storePhase, Backend: r.backend, Seed: r.seed,
					FileHash: hashes[origIdx[fr.Index]], Name: fr.Name,
					CompileRan: fr.CompileRan, CompileOK: fr.CompileOK,
					ExecRan: fr.ExecRan, ExecOK: fr.ExecOK,
					JudgeRan: fr.JudgeRan, Verdict: fr.Verdict.String(),
					Valid: fr.Valid,
				})
			}
			tr.file(fr.Name)
		},
	}, pending)
	for k, fr := range res {
		fr.Index = origIdx[k]
		results[fr.Index] = fr
	}
	stats.Compiles = st.Compiles
	stats.Executions = st.Executions
	stats.JudgeCalls = st.JudgeCalls
	stats.JudgeBatches = st.JudgeBatches
	// Phase checkpoint: the write-behind store buffers OnResult
	// appends (fills also auto-flush); settle them before returning.
	r.flushStore()
	return results, stats, err
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
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}
	jd := &judge.Judge{LLM: r.newLLM(), Style: style, Dialect: s.Dialect}
	return r.runPipeline(ctx, "pipeline/"+style.String(), jd, agent.NewTools(s.Dialect), r.recordAll, inputs)
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
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}
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
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}

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
	with, err := r.judgeDirect(ctx, "ablation-agent-info/agent", agentJudge, suite, func(pf probe.ProbedFile) *judge.ToolInfo {
		outcome := tools.Gather(pf.Name, pf.Source, pf.Lang)
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
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}
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

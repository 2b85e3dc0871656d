package pipeline

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Item is one file moving through a stage chain. Stages read Input,
// record tool evidence in Compile/Exec, and write outcomes to the
// file's FileResult via Result. A file is inside at most one stage at
// a time, and the scheduler hands it between stages over channels, so
// a stage owns the Item for the whole of its Run call.
type Item struct {
	// Index is the file's position in the slice passed to Run or
	// RunChain (and in the returned results).
	Index int
	// Input is the file under validation.
	Input Input
	// Compile and Exec carry tool evidence between stages; the
	// built-in stages populate them, custom stages may read or extend
	// them. Both are nil once the file seals.
	Compile *compiler.Result
	Exec    *machine.Result

	result *FileResult
	// ctx carries the file's trace root (span) through the stages;
	// without a tracer it aliases the run context and span is nil.
	ctx     context.Context
	span    *trace.Span
	stopped bool
}

// Context returns the file's context: the run context, extended with
// the file's trace when the run is traced. Batched stages receive a
// carrier context in Run; per-file work inside them should use each
// item's own Context so sub-spans land on the right trace.
func (it *Item) Context() context.Context { return it.ctx }

// Result returns the file's FileResult for the stage to record
// outcomes on. The pointed-to value is owned by the stage the file is
// in, and aggregated into the slice Run returns.
func (it *Item) Result() *FileResult { return it.result }

// Stop short-circuits the file: it seals once the current stage
// returns, skipping every later stage, and its fate is decided from
// the evidence recorded so far. The built-in stages call it when a
// file fails compile or execution outside record-all mode — the
// file's invalidity is demonstrated, so the remaining (more
// expensive) stages have nothing to add.
func (it *Item) Stop() { it.stopped = true }

// scheduler executes one chain run: a file enters stage k+1 the moment
// it completes stage k, with no barriers between stages or files.
type scheduler struct {
	ctx    context.Context
	cfg    Config
	stages []StageFunc
	chans  []chan *Item
	done   chan struct{}
	// outstanding counts unsealed files; done closes at zero.
	outstanding atomic.Int64

	// The first stage error (a failing context-aware backend, or the
	// context itself) aborts the run: workers drain without working
	// once it is set, and the run reports it even when ctx stays
	// live. runErr is read after the worker pools are joined, or by
	// abortErr once failed is set.
	runErr  error
	errOnce sync.Once
	failed  atomic.Bool
}

func (sc *scheduler) fail(err error) {
	sc.errOnce.Do(func() {
		sc.runErr = err
		sc.failed.Store(true)
	})
}

func (sc *scheduler) aborted() bool { return sc.failed.Load() || sc.ctx.Err() != nil }

// abortErr is the error an aborted run reports so far: the first stage
// error, else the context's. Only meaningful once aborted is true.
func (sc *scheduler) abortErr() error {
	if sc.failed.Load() {
		return sc.runErr
	}
	return sc.ctx.Err()
}

// RunChain schedules files through an ordered stage chain and returns
// per-file results in input order: every file runs stages[0], then
// stages[1], and so on, entering each stage the moment it completes
// the previous one. cfg supplies only the run-level hooks — OnResult,
// Tracer, and (through Judge being non-nil) whether the final verdict
// defers to a judge stage; workers, batching, and observers ride each
// stage's own StageSpec. Stats carries the file count only: the
// built-in counters belong to the built-in stages, which Run wires up.
// A chain with no stages, an empty or repeated stage name, or a
// negative Workers/Batch is an error before any file runs.
//
// Cancelling ctx, or a stage returning an error, drains the stages
// without further work; the partial results return with the first
// error.
func RunChain(ctx context.Context, cfg Config, stages []StageFunc, files []Input) ([]FileResult, Stats, error) {
	stats := Stats{Files: len(files)}
	if err := validateChain(stages); err != nil {
		return nil, stats, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]FileResult, len(files))
	for i := range files {
		results[i] = FileResult{Index: i, Name: files[i].Name}
	}
	if len(files) == 0 {
		return results, stats, ctx.Err()
	}

	sc := &scheduler{
		ctx:    ctx,
		cfg:    cfg,
		stages: stages,
		chans:  make([]chan *Item, len(stages)),
		done:   make(chan struct{}),
	}
	sc.outstanding.Store(int64(len(files)))
	for s := range sc.chans {
		sc.chans[s] = make(chan *Item, len(files))
	}
	items := make([]Item, len(files))
	for i := range items {
		it := &items[i]
		it.Index = i
		it.Input = files[i]
		it.result = &results[i]
		it.ctx = ctx
		if cfg.Tracer != nil {
			it.ctx, it.span = cfg.Tracer.StartTrace(ctx, "file")
			it.span.SetAttr("name", files[i].Name)
		}
	}

	// Seeding precedes the worker pools, so a batch-shaped first
	// stage (a judge-only chain) finds its whole ready queue filled
	// and submits full batches from the first.
	for i := range items {
		sc.advance(&items[i], 0)
	}

	var wg sync.WaitGroup
	for s, st := range stages {
		bcap := st.Batch
		if bcap < 1 {
			bcap = 1
		}
		for w := 0; w < st.workers(); w++ {
			wg.Add(1)
			go func(s, bcap int) {
				defer wg.Done()
				buf := make([]*Item, 0, bcap)
				for {
					select {
					case it := <-sc.chans[s]:
						buf = sc.work(s, it, buf)
					case <-sc.done:
						return
					}
				}
			}(s, bcap)
		}
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		sc.fail(err)
	}
	return results, stats, sc.runErr
}

// advance hands a file to the first stage from next on whose Applies
// gate admits it, or seals the file when none is left — or at once
// when the run is draining or the file short-circuited. Channels are
// buffered to the file count, so advance never blocks.
func (sc *scheduler) advance(it *Item, next int) {
	for ; next < len(sc.stages) && !it.stopped && !sc.aborted(); next++ {
		if ap := sc.stages[next].AppliesFunc; ap == nil || ap(it) {
			sc.chans[next] <- it
			return
		}
	}
	sc.seal(it)
	if sc.outstanding.Add(-1) == 0 {
		close(sc.done)
	}
}

// work runs one stage execution: the dequeued file plus, for
// batch-shaped stages, up to Batch-1 more already-waiting files
// coalesced into the same Run call. buf is the worker's reusable
// batch buffer.
func (sc *scheduler) work(s int, first *Item, buf []*Item) []*Item {
	st := &sc.stages[s]
	buf = append(buf[:0], first)
coalesce:
	for len(buf) < st.Batch {
		select {
		case more := <-sc.chans[s]:
			buf = append(buf, more)
		default:
			break coalesce
		}
	}
	if !sc.aborted() {
		sc.run(st, buf)
	}
	for _, it := range buf {
		sc.advance(it, s+1)
	}
	// Let the stage the batch went to run before this worker takes its
	// next file. On few Ps a fast upstream stage otherwise keeps its P
	// and piles files up before a slower one downstream, whose calls
	// (the judge's) then carry bigger batches and each file waits
	// longer in them.
	runtime.Gosched()
	return buf
}

// run makes one stage's Run call over a batch. Batch-shaped stages
// trace as one "<name>.batch" carrier span under the first batched
// file's trace; per-file stages open one "<name>" span on the file's
// own trace. The span's context hands the trace onward to everything
// the stage calls.
func (sc *scheduler) run(st *StageFunc, batch []*Item) {
	rctx := batch[0].ctx
	var span *trace.Span
	if batch[0].span != nil {
		if st.Batch >= 1 {
			rctx, span = trace.Start(batch[0].ctx, st.Name+".batch")
			span.SetAttr("batch_size", strconv.Itoa(len(batch)))
		} else {
			rctx, span = trace.Start(batch[0].ctx, st.Name)
		}
	}
	var err error
	if st.Observe == nil {
		err = st.RunFunc(rctx, batch)
	} else {
		start := time.Now()
		err = st.RunFunc(rctx, batch)
		st.Observe(st.Name, time.Since(start))
	}
	span.End()
	if err != nil {
		sc.fail(err) // backend or context failure; abort the run
	}
}

// seal fixes a file's fate: its final verdict is computable from the
// stages that ran, so it streams to the caller without waiting for
// the rest of the suite, and the Item drops its Compile and Exec
// evidence. Sealing ends the file's trace. Aborted runs
// drain without streaming — partial files keep the zero-valued flags
// of the stages they never ran — but still end the trace, its root
// carrying the run error, so the spans recorded before the abort (a
// failed fleet attempt, say) reach the sink.
func (sc *scheduler) seal(it *Item) {
	// No stage reads a sealed file again: let its evidence go now, not
	// when the suite returns, so the collector stops marking it.
	it.Compile, it.Exec = nil, nil
	if sc.aborted() {
		if it.span != nil {
			it.span.SetAttr("error", sc.abortErr().Error())
			it.span.End()
		}
		return
	}
	r := it.result
	judgeEnabled := sc.cfg.Judge != nil
	r.Valid = finalVerdict(r, judgeEnabled)
	if it.span != nil {
		// A run that neither compiled the file nor defers to a judge
		// (a judge-only chain) has no pipeline verdict to report.
		if r.CompileRan || judgeEnabled {
			it.span.SetAttr("valid", strconv.FormatBool(r.Valid))
		}
		if r.JudgeRan {
			it.span.SetAttr("verdict", r.Verdict.String())
		}
		it.span.End()
	}
	if sc.cfg.OnResult != nil {
		sc.cfg.OnResult(*r)
	}
}

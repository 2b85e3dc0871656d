package pipeline

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Item is one file moving through a stage graph. Stages read Input,
// record tool evidence in Compile/Exec, and write outcomes to the
// file's FileResult via Result. The scheduler owns the unexported
// bookkeeping: per-stage dependency counters, the remaining-stage
// count that seals the file, and the short-circuit flag.
type Item struct {
	// Index is the file's position in the slice passed to Run or
	// RunGraph (and in the returned results).
	Index int
	// Input is the file under validation.
	Input Input
	// Compile and Exec carry tool evidence between stages; the
	// built-in stages populate them, custom stages may read or extend
	// them.
	Compile *compiler.Result
	Exec    *machine.Result

	result *FileResult
	// ctx carries the file's trace root (span) through the stages;
	// without a tracer it aliases the run context and span is nil.
	ctx  context.Context
	span *trace.Span
	// deps[s] counts unmet prerequisites before stage s may run: one
	// per in-edge of s plus one per DependsOn dependency (which gate
	// every stage of the dependent file). Dispatch fires when the
	// count crosses zero.
	deps []atomic.Int32
	// remaining counts stages not yet completed; the file seals at 0.
	remaining atomic.Int32
	stopped   atomic.Bool
}

// Context returns the file's context: the run context, extended with
// the file's trace when the run is traced. Batched stages receive a
// carrier context in Run; per-file work inside them should use each
// item's own Context so sub-spans land on the right trace.
func (it *Item) Context() context.Context { return it.ctx }

// Result returns the file's FileResult for the stage to record
// outcomes on. The pointed-to value is owned by one stage at a time
// (the graph's edges order the handoffs), aggregated into the slice
// Run returns.
func (it *Item) Result() *FileResult { return it.result }

// Stop short-circuits the file: stages it has not yet entered are
// skipped and its fate is sealed from the evidence recorded so far.
// The built-in stages call it when a file fails compile or execution
// outside record-all mode — the file's invalidity is demonstrated, so
// the remaining (more expensive) stages have nothing to add.
func (it *Item) Stop() { it.stopped.Store(true) }

// runConfig is the run-level slice of Config the scheduler needs.
type runConfig struct {
	onResult     func(FileResult)
	tracer       *trace.Tracer
	judgeEnabled bool
}

// scheduler executes one graph run: files advance through stages the
// moment their per-stage prerequisite counters reach zero, with no
// barriers between stages or files.
type scheduler struct {
	ctx   context.Context
	g     *Graph
	rc    runConfig
	items []Item
	// dependents[i] lists files whose DependsOn names file i; nil
	// when no input declares dependencies (the fast path).
	dependents [][]int
	chans      []chan *Item
	done       chan struct{}
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

// RunGraph schedules files through a custom stage graph and returns
// per-file results in input order. cfg supplies only the run-level
// hooks — OnResult, Tracer, and (through Judge being non-nil) whether
// the final verdict defers to a judge stage; workers, batching, and
// observers ride each stage's own StageSpec. Stats carries the file
// count only: the built-in counters belong to the built-in stages,
// which Run wires up.
//
// Cancellation and stage errors behave exactly as in Run: the stages
// drain without further work and the partial results return with the
// first error.
func RunGraph(ctx context.Context, cfg Config, g *Graph, files []Input) ([]FileResult, Stats, error) {
	stats := Stats{Files: len(files)}
	results, err := runGraph(ctx, runConfig{
		onResult:     cfg.OnResult,
		tracer:       cfg.Tracer,
		judgeEnabled: cfg.Judge != nil,
	}, g, files)
	return results, stats, err
}

func runGraph(ctx context.Context, rc runConfig, g *Graph, files []Input) ([]FileResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]FileResult, len(files))
	for i := range files {
		results[i] = FileResult{Index: i, Name: files[i].Name}
	}
	if len(files) == 0 {
		return results, ctx.Err()
	}
	deps, dependents, err := fileDeps(files)
	if err != nil {
		return results, err
	}

	ns := len(g.stages)
	sc := &scheduler{
		ctx:        ctx,
		g:          g,
		rc:         rc,
		items:      make([]Item, len(files)),
		dependents: dependents,
		chans:      make([]chan *Item, ns),
		done:       make(chan struct{}),
	}
	sc.outstanding.Store(int64(len(files)))
	for s := range sc.chans {
		sc.chans[s] = make(chan *Item, len(files))
	}
	// One flat backing array holds every per-stage counter: n*ns
	// atomics in a single allocation instead of one slice per file.
	counters := make([]atomic.Int32, len(files)*ns)
	for i := range sc.items {
		it := &sc.items[i]
		it.Index = i
		it.Input = files[i]
		it.result = &results[i]
		it.ctx = ctx
		it.deps = counters[i*ns : (i+1)*ns]
		nd := 0
		if deps != nil {
			nd = len(deps[i])
		}
		for s := 0; s < ns; s++ {
			it.deps[s].Store(int32(g.indeg[s] + nd))
		}
		it.remaining.Store(int32(ns))
		if rc.tracer != nil {
			it.ctx, it.span = rc.tracer.StartTrace(ctx, "file")
			it.span.SetAttr("name", files[i].Name)
		}
	}

	// Seed every (file, stage) pair whose initial prerequisite count
	// is zero — the graph's root stages, for files with no upstream
	// DependsOn. Everything else dispatches when completions drive
	// its counter to zero. The initial counts, not the live counters,
	// decide seeding: on-the-spot completions may already be
	// decrementing. Seeding precedes the worker pools, so a
	// batch-shaped root stage (a judge-only graph) finds its whole
	// ready queue filled and submits full batches from the first.
	for i := range sc.items {
		it := &sc.items[i]
		nd := 0
		if deps != nil {
			nd = len(deps[i])
		}
		for s := 0; s < ns; s++ {
			if g.indeg[s]+nd == 0 {
				sc.dispatch(it, s)
			}
		}
	}

	var wg sync.WaitGroup
	for s := range g.stages {
		spec := g.specs[s]
		bcap := spec.Batch
		if bcap < 1 {
			bcap = 1
		}
		for w := 0; w < spec.workers(); w++ {
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
	return results, sc.runErr
}

// dispatch hands a ready (file, stage) pair to the stage's worker
// pool — or completes it on the spot when the run is draining, the
// file short-circuited, or the stage's Applies gate rejects it.
// Channels are buffered to the file count, so dispatch never blocks.
func (sc *scheduler) dispatch(it *Item, s int) {
	if sc.aborted() || it.stopped.Load() {
		sc.completeStage(it, s)
		return
	}
	if ap := sc.g.applies[s]; ap != nil && !ap(it) {
		sc.completeStage(it, s)
		return
	}
	sc.chans[s] <- it
}

// work runs one stage execution: the dequeued file plus, for
// batch-shaped stages, up to Batch-1 more already-waiting files
// coalesced into the same Run call. buf is the worker's reusable
// batch buffer.
func (sc *scheduler) work(s int, first *Item, buf []*Item) []*Item {
	g := sc.g
	spec := g.specs[s]
	buf = append(buf[:0], first)
coalesce:
	for len(buf) < spec.Batch {
		select {
		case more := <-sc.chans[s]:
			buf = append(buf, more)
		default:
			break coalesce
		}
	}
	if sc.aborted() {
		for _, it := range buf {
			sc.completeStage(it, s)
		}
		return buf
	}
	// A parallel branch may have stopped a file after dispatch;
	// stopped files skip the stage here too.
	run := buf[:0:len(buf)]
	for _, it := range buf {
		if it.stopped.Load() {
			sc.completeStage(it, s)
			continue
		}
		run = append(run, it)
	}
	if len(run) == 0 {
		return buf
	}

	// Batch-shaped stages trace as one "<name>.batch" carrier span
	// under the first batched file's trace; per-file stages open one
	// "<name>" span on the file's own trace. The span's context hands
	// the trace onward to everything the stage calls.
	rctx := run[0].ctx
	var span *trace.Span
	if run[0].span != nil {
		if spec.Batch >= 1 {
			rctx, span = trace.Start(run[0].ctx, spec.Name+".batch")
			span.SetAttr("batch_size", strconv.Itoa(len(run)))
		} else {
			rctx, span = trace.Start(run[0].ctx, spec.Name)
		}
	}
	var err error
	if spec.Observe == nil {
		err = g.stages[s].Run(rctx, run)
	} else {
		start := time.Now()
		err = g.stages[s].Run(rctx, run)
		spec.Observe(spec.Name, time.Since(start))
	}
	span.End()
	if err != nil {
		sc.fail(err) // backend or context failure; abort the run
	}
	for _, it := range run {
		sc.completeStage(it, s)
	}
	return buf
}

// completeStage retires one (file, stage) pair: successor stages and
// dependent files learn of the completion (dispatching any that
// become ready), and the file seals when its last stage retires.
func (sc *scheduler) completeStage(it *Item, s int) {
	for _, succ := range sc.g.succs[s] {
		sc.arrive(it, succ)
	}
	if sc.dependents != nil {
		for _, d := range sc.dependents[it.Index] {
			sc.arrive(&sc.items[d], s)
		}
	}
	if it.remaining.Add(-1) == 0 {
		sc.seal(it)
		if sc.outstanding.Add(-1) == 0 {
			close(sc.done)
		}
	}
}

// arrive records one met prerequisite for (file, stage), dispatching
// the pair when the last one lands.
func (sc *scheduler) arrive(it *Item, s int) {
	if it.deps[s].Add(-1) == 0 {
		sc.dispatch(it, s)
	}
}

// seal fixes a file's fate: its final verdict is computable from the
// stages that ran, so it streams to the caller without waiting for
// the rest of the suite. Sealing ends the file's trace. Aborted runs
// drain without streaming — partial files keep their zero-valued
// stage flags, exactly as the linear pipeline behaved — but still end
// the trace, its root carrying the run error, so the spans recorded
// before the abort (a failed fleet attempt, say) reach the sink.
func (sc *scheduler) seal(it *Item) {
	if sc.aborted() {
		if it.span != nil {
			it.span.SetAttr("error", sc.abortErr().Error())
			it.span.End()
		}
		return
	}
	r := it.result
	r.Valid = finalVerdict(r, sc.rc.judgeEnabled)
	if it.span != nil {
		// A run that neither compiled the file nor defers to a judge
		// (a judge-only graph) has no pipeline verdict to report.
		if r.CompileRan || sc.rc.judgeEnabled {
			it.span.SetAttr("valid", strconv.FormatBool(r.Valid))
		}
		if r.JudgeRan {
			it.span.SetAttr("verdict", r.Verdict.String())
		}
		it.span.End()
	}
	if sc.rc.onResult != nil {
		sc.rc.onResult(*r)
	}
}

// fileDeps resolves Input.DependsOn into index form: deps[i] lists
// the files i waits for, dependents[j] the files waiting on j. All
// nil when no input declares dependencies. Unknown or self
// dependencies, duplicate names among the inputs, and dependency
// cycles (Kahn over the file graph) are errors.
func fileDeps(files []Input) (deps, dependents [][]int, err error) {
	any := false
	for i := range files {
		if len(files[i].DependsOn) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil, nil, nil
	}
	index := make(map[string]int, len(files))
	for i := range files {
		if j, dup := index[files[i].Name]; dup {
			return nil, nil, fmt.Errorf("pipeline: inputs %d and %d share the name %q; DependsOn needs unique names", j, i, files[i].Name)
		}
		index[files[i].Name] = i
	}
	deps = make([][]int, len(files))
	dependents = make([][]int, len(files))
	for i := range files {
		for _, name := range files[i].DependsOn {
			j, ok := index[name]
			if !ok {
				return nil, nil, fmt.Errorf("pipeline: input %q depends on unknown input %q", files[i].Name, name)
			}
			if j == i {
				return nil, nil, fmt.Errorf("pipeline: input %q depends on itself", files[i].Name)
			}
			deps[i] = append(deps[i], j)
			dependents[j] = append(dependents[j], i)
		}
	}
	indeg := make([]int, len(files))
	for i := range deps {
		indeg[i] = len(deps[i])
	}
	queue := make([]int, 0, len(files))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	retired := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		retired++
		for _, d := range dependents[i] {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if retired != len(files) {
		var cyclic []string
		for i, d := range indeg {
			if d > 0 {
				cyclic = append(cyclic, files[i].Name)
			}
		}
		return nil, nil, fmt.Errorf("pipeline: dependency cycle among inputs %s", strings.Join(cyclic, ", "))
	}
	return deps, dependents, nil
}

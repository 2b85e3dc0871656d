package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/judge"
	"repro/internal/perf"
	"repro/internal/store"
	"repro/internal/trace"
)

// Defaults for the zero values of Config's knobs.
const (
	DefaultBatchMaxSize = 16
	DefaultQueueLimit   = 1024
	DefaultRetryAfter   = 50 * time.Millisecond
)

// dedupPhase is the Experiment field of store records written by the
// server: dedup records live in their own phase namespace so they can
// never collide with an experiment's sealed verdicts.
const dedupPhase = "serve/completions"

// errShuttingDown answers requests caught mid-shutdown, mapped to 503
// on every path so clean shutdowns never read as internal errors.
var errShuttingDown = errors.New("server shutting down")

// Config configures a Server. LLM is the only required field.
type Config struct {
	// LLM is the fronted endpoint. Implementing judge.BatchLLM opts it
	// into coalesced shards; judge.ContextLLM into per-prompt
	// cancellation on the fallback path.
	LLM judge.LLM
	// Backend and Seed identify what LLM was constructed from; they
	// are reported by /v1/backends and key the dedup store records.
	Backend string
	Seed    uint64
	// ReplicaID is this instance's stable name in /healthz,
	// /v1/backends, and the /metrics replica label — how router logs
	// and failover tests tell fleet members apart. llm4vvd defaults it
	// to the listen address.
	ReplicaID string
	// Registered is the backend-registry listing reported by
	// /v1/backends (the server does not import the registry itself).
	Registered []string

	// BatchMaxSize caps how many concurrent /v1/complete requests one
	// micro-batch may coalesce. Default DefaultBatchMaxSize.
	BatchMaxSize int
	// QueueLimit bounds admission: the total prompts queued or in
	// flight, across both endpoints. Excess requests get 429 with a
	// Retry-After hint. Default DefaultQueueLimit.
	QueueLimit int
	// RetryAfter is the back-off hint sent with 429 responses.
	// Default DefaultRetryAfter.
	RetryAfter time.Duration

	// Store, when set, records every completion keyed by
	// (backend, seed, prompt hash) and serves identical prompts from
	// the record without an endpoint call — dedup that spans workers
	// and daemon restarts. The server never closes the store.
	Store *store.Store

	// Tracer, when set, records server-side spans — request, gather,
	// batch, resolve, endpoint — joined to the caller's trace via the
	// propagation headers, serves recent traces on /debug/traces, and
	// feeds the slow-exemplar metric family. Nil disables tracing at
	// zero cost.
	Tracer *trace.Tracer

	// Fault, when set, arms deterministic chaos injection: the fronted
	// endpoint is wrapped at the "daemon.complete" point (malformed
	// completions, errors, latency) and the two completion handlers at
	// "daemon.handler" (slow responses, hangs, 500s). Injected counts
	// surface in the llm4vv_resilience_faults_injected_total metric
	// family. Nil — the production default — injects nothing.
	Fault *fault.Injector
}

// result is one resolved prompt handed back to a waiting request.
type result struct {
	resp string
	err  error
}

// pending is one /v1/complete request queued for the micro-batcher.
type pending struct {
	ctx     context.Context
	prompt  string
	release func()      // frees the admission slot once the prompt resolves
	done    chan result // buffered(1): delivery never blocks dispatch
}

// answer delivers p's result and frees its admission slot: the prompt
// is done, whether or not its requester is still waiting.
func (p *pending) answer(res result) {
	p.done <- res
	p.release()
}

// queuePolicy is the daemon's admission policy: one bound on the
// prompts queued or in flight across both completion routes.
type queuePolicy struct {
	limit    int
	inflight atomic.Int64 // prompts admitted and not yet answered
	rejected atomic.Int64
}

func (q *queuePolicy) Ceiling(*http.Request) (int, string, string) {
	return q.limit, "daemon queue limit", "-queue"
}

func (q *queuePolicy) Admit(_ *http.Request, _ *trace.Span, n int, _ bool) (func(), string) {
	if q.inflight.Add(int64(n)) > int64(q.limit) {
		q.inflight.Add(int64(-n))
		q.rejected.Add(1)
		return nil, "server overloaded, retry later"
	}
	return func() { q.inflight.Add(int64(-n)) }, ""
}

// Server is the judging daemon. Construct with New, mount Handler on
// an http.Server, and Close when done.
type Server struct {
	cfg Config
	// llm is the endpoint actually called: Config.LLM, wrapped at the
	// "daemon.complete" fault point when chaos injection is armed.
	// Config.LLM stays unwrapped for structural queries (Describe,
	// breaker states) — the fault shim must never mask those.
	llm       judge.LLM
	batch     judge.BatchLLM // nil when the endpoint is single-prompt only
	queue     chan *pending
	admission queuePolicy
	// inflight holds each prompt from the request that leads it until
	// its answer lands; admission bounds it to QueueLimit prompts.
	inflight judge.Inflight

	flushed    chan time.Duration // each flush's duration, sent to collect as it ends
	gatherWait atomic.Int64       // GatherDelay, in nanoseconds

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// rec collects per-stage latency samples ("resolve" per shard,
	// "endpoint" per fronted-endpoint call) for the /metrics summary
	// series.
	rec *perf.Recorder

	requests        atomic.Int64
	batchRequests   atomic.Int64
	endpointCalls   atomic.Int64
	endpointPrompts atomic.Int64
	coalesced       atomic.Int64
	storeHits       atomic.Int64
}

// batchPool recycles the micro-batcher's pending-slice backing arrays
// across batches; promptsPool does the same for the prompt slices a
// flush extracts. Under load one batch forms per flush, so without
// pooling the collector allocates two slices per batch forever.
var (
	batchPool   = sync.Pool{New: func() any { return new([]*pending) }}
	promptsPool = sync.Pool{New: func() any { return new([]string) }}
)

func getBatchSlice() []*pending {
	return (*batchPool.Get().(*[]*pending))[:0]
}

// putBatchSlice returns a batch's backing array to the pool, clearing
// the pending pointers so pooled arrays don't pin answered requests.
func putBatchSlice(batch []*pending) {
	for i := range batch {
		batch[i] = nil
	}
	b := batch[:0]
	batchPool.Put(&b)
}

func getPromptsSlice() []string {
	return (*promptsPool.Get().(*[]string))[:0]
}

func putPromptsSlice(prompts []string) {
	for i := range prompts {
		prompts[i] = ""
	}
	p := prompts[:0]
	promptsPool.Put(&p)
}

// New builds a Server over cfg and starts its micro-batch collector.
func New(cfg Config) *Server {
	if cfg.LLM == nil {
		panic("server: Config.LLM is required")
	}
	if cfg.BatchMaxSize <= 0 {
		cfg.BatchMaxSize = DefaultBatchMaxSize
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *pending, cfg.QueueLimit),
		admission: queuePolicy{limit: cfg.QueueLimit},
		flushed:   make(chan time.Duration),
		rec:       perf.NewRecorder(),
	}
	s.llm = fault.LLM(cfg.Fault, "daemon.complete", cfg.LLM)
	s.batch, _ = s.llm.(judge.BatchLLM)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.collect()
	return s
}

// Close stops the collector, fails any queued requests, and waits for
// in-flight dispatches. Shut the http.Server down first so no new
// requests arrive while the queue drains.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	for {
		select {
		case p := <-s.queue:
			p.answer(result{err: errShuttingDown})
		default:
			return
		}
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:        s.requests.Load(),
		BatchRequests:   s.batchRequests.Load(),
		Rejected:        s.admission.rejected.Load(),
		EndpointCalls:   s.endpointCalls.Load(),
		EndpointPrompts: s.endpointPrompts.Load(),
		Coalesced:       s.coalesced.Load(),
		StoreHits:       s.storeHits.Load(),
		GatherDelayNS:   s.gatherWait.Load(),
	}
}

// Handler returns the daemon's route table: the shared Face over the
// micro-batcher, its fault middleware on the two completion routes.
func (s *Server) Handler() http.Handler {
	face := &Face{
		Endpoint:   Endpoint{Complete: s.enqueue, CompleteBatch: s.resolveBatch},
		Admission:  &s.admission,
		Span:       "server.request",
		BatchSpan:  "server.batch_request",
		Instance:   perf.Label("replica", s.cfg.ReplicaID),
		FailStatus: http.StatusInternalServerError,
		RetryAfter: s.cfg.RetryAfter,
		Tracer:     s.cfg.Tracer,
		Fault:      s.cfg.Fault,
		Resilience: s.cfg.LLM,
		Wrap: func(h http.Handler) http.Handler {
			return fault.Middleware(s.cfg.Fault, "daemon.handler", h)
		},
		Healthz:  s.healthz,
		Backends: s.backends,
		Metrics:  s.emitMetrics,
	}
	return face.Handler()
}

// enqueue is the daemon's single-prompt endpoint: the prompt joins the
// micro-batcher's queue carrying its slot's release, which runs when
// the prompt is answered (flush, or the Close drain).
func (s *Server) enqueue(ctx context.Context, prompt string, release func()) (string, error) {
	s.requests.Add(1)
	p := &pending{ctx: ctx, prompt: prompt, release: release, done: make(chan result, 1)}
	select {
	case s.queue <- p:
	case <-s.baseCtx.Done():
		release()
		return "", errShuttingDown
	}
	select {
	case res := <-p.done:
		return res.resp, res.err
	case <-ctx.Done():
		// Client gone or deadline passed; the coalesced batch still
		// completes for its other members.
		return "", ctx.Err()
	}
}

// resolveBatch is the daemon's batch endpoint: one shard, resolved
// as one unit.
func (s *Server) resolveBatch(ctx context.Context, prompts []string) ([]string, error) {
	s.batchRequests.Add(1)
	return s.resolve(ctx, prompts)
}

// collect is the work-conserving micro-batcher: it takes the first
// queued prompt and everything already waiting, up to BatchMaxSize,
// and dispatches at once unless a flush is in flight. While one is,
// the batch gathers until it is full, a flush ends, or it has waited
// as long as the last completed flush took, so one hung endpoint call
// cannot hold later prompts. Flush returns the pooled batch slice.
func (s *Server) collect() {
	defer s.wg.Done()
	inflight := 0                        // flushes dispatched and not yet ended
	last := time.Duration(math.MaxInt64) // last completed flush's duration; no bound until one completes
	for {
		var first *pending
		select {
		case first = <-s.queue:
		case last = <-s.flushed:
			inflight--
			continue
		case <-s.baseCtx.Done():
			return
		}
		batch := append(getBatchSlice(), first)
	drain:
		for len(batch) < s.cfg.BatchMaxSize {
			select {
			case p := <-s.queue:
				batch = append(batch, p)
			default:
				break drain
			}
		}
		var waited time.Duration
		if inflight > 0 && len(batch) < s.cfg.BatchMaxSize {
			start := time.Now()
			timer := time.NewTimer(last)
		gather:
			for len(batch) < s.cfg.BatchMaxSize {
				select {
				case p := <-s.queue:
					batch = append(batch, p)
				case last = <-s.flushed:
					inflight--
					break gather
				case <-timer.C:
					break gather
				case <-s.baseCtx.Done():
					break gather
				}
			}
			timer.Stop()
			waited = time.Since(start)
		}
		s.gatherWait.Store(int64(waited))
		if len(batch) > 1 {
			s.coalesced.Add(1)
		}
		inflight++
		s.wg.Add(1)
		go s.flush(batch)
	}
}

// GatherDelay reports how long the most recent micro-batch waited on
// an in-flight flush before dispatch — 0 when it dispatched at once
// (exposed in /healthz stats as gather_delay_ns).
func (s *Server) GatherDelay() time.Duration {
	return time.Duration(s.gatherWait.Load())
}

// flushEnded reports a flush's duration to collect before its members
// are answered, so no requester holding an answer sees its flush still
// in flight. After Close cancels baseCtx the report is dropped.
func (s *Server) flushEnded(start time.Time) {
	select {
	case s.flushed <- time.Since(start):
	case <-s.baseCtx.Done():
	}
}

// flush resolves one coalesced micro-batch on its own goroutine, so
// the next batch forms meanwhile. Members whose context already ended
// are answered with that error and excluded; the rest share one
// resolve pass. A member's own deadline elapsing mid-flight is handled
// on the handler side — the batch completes for everyone else
// regardless. Every member's admission slot is released here, when
// its prompt is truly done, so QueueLimit bounds real outstanding work
// even when requesters disconnect early.
func (s *Server) flush(batch []*pending) {
	defer s.wg.Done()
	defer putBatchSlice(batch)
	start := time.Now()
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.answer(result{err: err})
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		s.flushEnded(start)
		return
	}
	prompts := getPromptsSlice()
	defer func() { putPromptsSlice(prompts) }()
	for _, p := range live {
		prompts = append(prompts, p.prompt)
	}
	// The coalesced batch is one unit of work shared by every member;
	// its span opens under the first traced member's request (the
	// carrier), so that trace shows the whole gather-and-resolve
	// interval the member actually waited through. Resolution runs on
	// baseCtx — only the span rides over, never a member's
	// cancellation.
	rctx := s.baseCtx
	if s.cfg.Tracer != nil {
		for _, p := range live {
			if bctx, bspan := trace.Start(p.ctx, "server.batch"); bspan != nil {
				bspan.SetAttr("batch_size", strconv.Itoa(len(live)))
				defer bspan.End()
				rctx = trace.ContextWith(s.baseCtx, trace.FromContext(bctx))
				break
			}
		}
	}
	resps, err := s.resolve(rctx, prompts)
	s.flushEnded(start)
	if err != nil && s.baseCtx.Err() != nil {
		// The base context ends only at Close: report shutdown, not
		// the bare cancellation it caused.
		err = errShuttingDown
	}
	for i, p := range live {
		if err != nil {
			p.answer(result{err: err})
			continue
		}
		p.answer(result{resp: resps[i]})
	}
}

// dedupKey is the run-store key for one prompt's completion record.
func (s *Server) dedupKey(hash string) store.Key {
	return store.Key{Experiment: dedupPhase, Backend: s.cfg.Backend, Seed: s.cfg.Seed, FileHash: hash}
}

// resolve answers a shard of prompts through the in-flight table: a
// prompt already being resolved, for this shard or a concurrent
// request, is waited on; lead answers the rest. Responses come back in
// prompt order, byte-identical to asking the endpoint each prompt
// alone.
func (s *Server) resolve(ctx context.Context, prompts []string) ([]string, error) {
	defer func(start time.Time) { s.rec.Observe("resolve", time.Since(start)) }(time.Now())
	var span *trace.Span
	ctx, span = trace.Start(ctx, "server.resolve")
	if span != nil {
		span.SetAttr("prompts", strconv.Itoa(len(prompts)))
		defer span.End()
	}
	out := make([]string, len(prompts))
	keys := make([]judge.PromptKey, len(prompts))
	for i, p := range prompts {
		keys[i] = judge.KeyOf(p)
	}
	sent := 0
	err := s.inflight.Do(ctx, keys, out, func(led []int) ([]string, error) {
		resps, n, err := s.lead(ctx, prompts, keys, led)
		sent += n
		return resps, err
	})
	if err != nil {
		return nil, err
	}
	s.storeHits.Add(int64(len(prompts) - sent))
	if span != nil {
		span.SetAttr("dedup_hits", strconv.Itoa(len(prompts)-sent))
	}
	return out, nil
}

// lead answers the prompts this call leads in the in-flight table:
// store hits cost nothing, and the rest go to the endpoint in one call
// (lead reports how many). New completions are in the store before
// lead returns, so before the table lets their prompts go. The store
// key's FileHash is the hex prompt hash, exactly as store.HashSource
// would render it.
func (s *Server) lead(ctx context.Context, prompts []string, keys []judge.PromptKey, led []int) ([]string, int, error) {
	resps := make([]string, len(led))
	miss := make([]int, 0, len(led)) // positions in led that need the endpoint
	missing := make([]string, 0, len(led))
	for n, i := range led {
		if s.cfg.Store != nil {
			// The serve/completions namespace holds only records this
			// path wrote, so presence alone is the hit signal — an
			// endpoint whose legitimate response is empty still dedups.
			if rec, ok := s.cfg.Store.Get(s.dedupKey(keys[i].Hex())); ok {
				resps[n] = rec.Response
				continue
			}
		}
		miss = append(miss, n)
		missing = append(missing, prompts[i])
	}
	if len(missing) == 0 {
		return resps, 0, nil
	}
	got, err := s.completeEndpoint(ctx, missing)
	if err != nil {
		return nil, 0, err
	}
	for m, n := range miss {
		resps[n] = got[m]
		if s.cfg.Store != nil {
			_ = s.cfg.Store.Put(store.Record{
				Experiment: dedupPhase, Backend: s.cfg.Backend, Seed: s.cfg.Seed,
				FileHash: keys[led[n]].Hex(), JudgeRan: true, Response: got[m],
			})
		}
	}
	if s.cfg.Store != nil {
		// The store is write-behind; one flush per led shard keeps
		// dedup records durable at micro-batch granularity.
		_ = s.cfg.Store.Flush()
	}
	return resps, len(missing), nil
}

// completeEndpoint submits unique prompts to the fronted endpoint
// through the richest contract it offers (judge.CompleteAll): one
// call for batch-capable backends, one per prompt otherwise.
func (s *Server) completeEndpoint(ctx context.Context, prompts []string) ([]string, error) {
	if s.batch != nil {
		s.endpointCalls.Add(1)
	} else {
		s.endpointCalls.Add(int64(len(prompts)))
	}
	s.endpointPrompts.Add(int64(len(prompts)))
	defer func(start time.Time) { s.rec.Observe("endpoint", time.Since(start)) }(time.Now())
	ctx, span := trace.Start(ctx, "server.endpoint")
	if span != nil {
		span.SetAttr("prompts", strconv.Itoa(len(prompts)))
		defer span.End()
	}
	return judge.CompleteAll(ctx, s.llm, prompts)
}

// backends is the daemon's /v1/backends body.
func (s *Server) backends(*http.Request) (int, any) {
	resp := BackendsResponse{
		Serving:    s.cfg.Backend,
		Seed:       s.cfg.Seed,
		Batch:      s.batch != nil,
		Registered: s.cfg.Registered,
		ReplicaID:  s.cfg.ReplicaID,
	}
	// A served voting panel describes itself; matched structurally so
	// the daemon core stays endpoint-agnostic (like judge's generator
	// interface).
	if p, ok := s.cfg.LLM.(interface{ Describe() ([]string, string) }); ok {
		resp.PanelMembers, resp.PanelStrategy = p.Describe()
	}
	return http.StatusOK, resp
}

// healthz is the daemon's /healthz body.
func (s *Server) healthz(*http.Request) (int, any) {
	return http.StatusOK, HealthResponse{
		OK:        true,
		Backend:   s.cfg.Backend,
		Seed:      s.cfg.Seed,
		ReplicaID: s.cfg.ReplicaID,
		Stats:     s.Stats(),
	}
}

// emitMetrics writes the daemon's /metrics families: the serving
// counters, the per-stage latency summaries, and the store gauges,
// every series labelled with this instance's replica ID so a fleet's
// scrapes aggregate without relabelling.
func (s *Server) emitMetrics(p *perf.Prom) {
	st := s.Stats()
	replica := perf.Label("replica", s.cfg.ReplicaID)
	p.EmitValue(perf.FamRequests, float64(st.Requests), replica)
	p.EmitValue(perf.FamBatchRequests, float64(st.BatchRequests), replica)
	p.EmitValue(perf.FamRejected, float64(st.Rejected), replica)
	p.EmitValue(perf.FamEndpointCalls, float64(st.EndpointCalls), replica)
	p.EmitValue(perf.FamEndpointPrompts, float64(st.EndpointPrompts), replica)
	p.EmitValue(perf.FamCoalescedBatches, float64(st.Coalesced), replica)
	p.EmitValue(perf.FamStoreHits, float64(st.StoreHits), replica)
	p.EmitValue(perf.FamGatherDelay, time.Duration(st.GatherDelayNS).Seconds(), replica)
	p.EmitValue(perf.FamInflight, float64(s.admission.inflight.Load()), replica)
	p.EmitSummaries(perf.FamStageSeconds, s.rec.Snapshot(), replica)
	if s.cfg.Store != nil {
		sst := s.cfg.Store.Stats()
		p.EmitValue(perf.FamStoreKeys, float64(sst.Keys), replica)
		p.EmitValue(perf.FamStoreSegments, float64(sst.SegmentCount()), replica)
		p.EmitValue(perf.FamStoreActiveBytes, float64(sst.ActiveBytes), replica)
		p.EmitValue(perf.FamStoreDropped, float64(sst.Dropped), replica)
		mergeFailing := 0.0
		if sst.MergeErr != "" {
			mergeFailing = 1
		}
		p.EmitValue(perf.FamStoreMergeFailing, mergeFailing, replica)
		p.EmitValue(perf.FamStoreReadErrors, float64(sst.ReadErrors), replica)
	}
}

// Command llm4vvd is the judging daemon: it fronts one registered LLM
// backend over HTTP so any number of worker processes — cmd/llm4vv,
// cmd/judgebench, or third-party clients — judge through one shared
// endpoint instead of each embedding its own. Workers select it with
// -serve-addr (or -backend remote:<addr>), and every experiment runs
// unmodified against it.
//
// Usage:
//
//	llm4vvd [-addr HOST:PORT] [-backend NAME] [-seed N] \
//	        [-batch-max N] [-queue N] \
//	        [-replica-id NAME] [-store PATH] [-cache] \
//	        [-trace F] [-fault SPEC] [-cpuprofile F] [-memprofile F]
//
// -replica-id names the instance in /healthz, /v1/backends, and the
// /metrics replica label (default: the listen address) so routers and
// dashboards can tell fleet members apart; /metrics serves the serving
// counters and per-stage latency summaries in Prometheus text format.
// A fleet of llm4vvd replicas scales horizontally behind
// cmd/llm4vv-router, which consistent-hash routes prompts so each
// replica's dedup store and cache stay authoritative for its share of
// the key space.
//
// A lone single-prompt request dispatches at once; requests arriving
// while an endpoint call is in flight coalesce into one CompleteBatch
// call of at most -batch-max prompts. -queue (N >= 1, like -batch-max)
// bounds admission, with overload answered by 429 + Retry-After. -store
// mounts a persistent run store so identical (backend, seed, prompt)
// requests — across workers and daemon restarts — dedup to one
// completion; -cache adds an in-memory memo with singleflight dedup
// of concurrent identical prompts. SIGINT shuts down gracefully:
// in-flight requests finish, then the store is closed.
//
// The daemon can serve a whole voting panel: -backend
// "ensemble:a+b+c[:strategy]" composes the named backends into one
// ensemble endpoint whose responses carry the per-member votes, so
// workers running `judgebench -panel -serve-addr` score agreement
// metrics off the daemon exactly as they would in-process.
// /v1/backends reports the panel members and strategy.
//
// -trace appends one JSONL trace fragment per completed request trace
// to the given file: requests arriving with X-LLM4VV-Trace join the
// caller's distributed trace, and the daemon's gather/batch/resolve
// spans land in the fragment tagged with this replica's process name.
// The most recent fragments are also served as JSON on /debug/traces,
// and the slowest span per stage is exported as the
// llm4vv_trace_slow_exemplar metric. Status lines are structured logs
// (log/slog) carrying replica_id.
//
// -fault arms deterministic chaos injection from a seeded schedule —
// "<seed>:point=kind[@freq][/dur][#count],..." — at the daemon's named
// injection points: "daemon.complete" (malformed completions, errors,
// latency at the fronted endpoint), "daemon.handler" (slow responses,
// hangs, 500s at the completion handlers), and "store.write" /
// "store.sync" / "store.rename" (failed file I/O in the run store).
// Identical seeds and schedules reproduce identical fault sequences;
// injected counts surface in the llm4vv_resilience_* metric families.
// See docs/OPERATIONS.md §8 for the chaos runbook.
//
// -cpuprofile/-memprofile write pprof profiles covering the daemon's
// lifetime (CPU from start to shutdown; heap at exit after a GC), the
// field instrument for serving hot paths: start the daemon profiled,
// drive the real workload, SIGINT, inspect.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	llm4vv "repro"
	"repro/internal/fault"
	"repro/internal/judge"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	backend := flag.String("backend", llm4vv.DefaultBackend, "registered LLM backend to serve")
	seed := flag.Uint64("seed", llm4vv.DefaultModelSeed, "model sampling seed")
	batchMax := flag.Int("batch-max", server.DefaultBatchMaxSize, "micro-batcher: max coalesced prompts per endpoint call, N >= 1")
	queue := flag.Int("queue", server.DefaultQueueLimit, "admission control: max prompts queued or in flight, N >= 1")
	replicaID := flag.String("replica-id", "", "stable instance name in /healthz, /v1/backends, and /metrics labels (default: the listen address)")
	storePath := flag.String("store", "", "dedup identical requests through this JSONL run store")
	cache := flag.Bool("cache", false, "memoise completions in memory with singleflight dedup")
	traceFile := flag.String("trace", "", "append JSONL trace fragments to this file (also enables /debug/traces)")
	faultSpec := flag.String("fault", "", "chaos testing: seeded deterministic fault schedule, \"<seed>:point=kind[@freq][/dur][#count],...\" (see docs/OPERATIONS.md §8)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at shutdown")
	flag.Parse()
	if *batchMax < 1 || *queue < 1 {
		fail(fmt.Errorf("-batch-max %d, -queue %d: both want N >= 1", *batchMax, *queue))
	}

	var injector *fault.Injector
	if *faultSpec != "" {
		var err error
		injector, err = fault.Parse(*faultSpec)
		fail(err)
	}

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	fail(err)
	stopProfiles = stopProf
	defer func() { _ = stopProfiles() }()

	llm, err := llm4vv.NewBackend(*backend, *seed)
	fail(err)
	if *cache {
		llm = judge.Cached(llm)
	}

	if *replicaID == "" {
		*replicaID = *addr
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("replica_id", *replicaID)
	var tracer *trace.Tracer
	if *traceFile != "" {
		tf, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fail(err)
		defer tf.Close()
		tracer = trace.New(trace.WithWriter(tf), trace.WithProcess("llm4vvd/"+*replicaID))
	}
	cfg := server.Config{
		LLM:          llm,
		Backend:      *backend,
		Seed:         *seed,
		ReplicaID:    *replicaID,
		Registered:   llm4vv.Backends(),
		BatchMaxSize: *batchMax,
		QueueLimit:   *queue,
		Tracer:       tracer,
		Fault:        injector,
	}
	var st *store.Store
	if *storePath != "" {
		st, err = store.OpenWith(*storePath, store.Options{FaultHook: fault.Hook(injector, "store")})
		fail(err)
		cfg.Store = st
	}
	if injector != nil {
		logger.Info("llm4vvd: chaos fault schedule armed", "seed", injector.Seed(), "spec", *faultSpec)
	}

	srv := server.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("llm4vvd: serving", "backend", *backend, "seed", *seed, "addr", *addr, "tracing", *traceFile != "")

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	logger.Info("llm4vvd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("llm4vvd: shutdown", "err", err)
	}
	srv.Close()
	if st != nil {
		fail(st.Close())
	}
	s := srv.Stats()
	logger.Info("llm4vvd: served",
		"requests", s.Requests, "batch_requests", s.BatchRequests,
		"endpoint_calls", s.EndpointCalls, "endpoint_prompts", s.EndpointPrompts,
		"coalesced", s.Coalesced, "store_hits", s.StoreHits, "rejected", s.Rejected)
}

// stopProfiles finalises -cpuprofile/-memprofile; fail routes through
// it so a daemon dying on an error still writes its profiles.
var stopProfiles = func() error { return nil }

func fail(err error) {
	if err != nil {
		_ = stopProfiles()
		fmt.Fprintln(os.Stderr, "llm4vvd:", err)
		os.Exit(1)
	}
}

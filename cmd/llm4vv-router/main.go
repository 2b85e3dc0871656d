// Command llm4vv-router is the fleet router: it fronts N llm4vvd
// replicas behind one address speaking the same wire protocol, so a
// worker pointed at it with -serve-addr (or -backend remote:<addr>)
// judges through the whole fleet without knowing it is one.
//
// Usage:
//
//	llm4vv-router -replicas ADDR1,ADDR2,... [-addr HOST:PORT] \
//	              [-id NAME] [-load-factor F] \
//	              [-health-interval D] [-queue N] [-bulk-queue N] \
//	              [-client-quota N] [-retry-after D] [-trace F] \
//	              [-fault SPEC] [-cpuprofile F] [-memprofile F]
//
// Prompts are placed by rendezvous hashing on their content key over
// the -replicas list, so each replica's dedup store stays
// authoritative for its share of the key space; bounded-load routing
// (-load-factor) spills keys off a hot replica, and a background
// health loop (-health-interval) evicts dead replicas and readmits
// recoveries, with request failures failing over to the key's next
// successor. With every replica serving the same backend and seed,
// reports produced through the router are byte-identical to a single
// daemon's — including across a replica dying mid-sweep.
//
// Admission is priority-aware: requests carrying the X-LLM4VV-Priority
// header are classed interactive or bulk (unlabelled batch requests
// default to bulk — the sweep path), and bulk sheds with 429 +
// Retry-After at a lower ceiling (-bulk-queue) than interactive
// (-queue), so sweeps yield to humans under overload. -client-quota
// caps one client's in-flight prompts (keyed by X-LLM4VV-Client).
// /metrics serves the routing, admission, and per-replica counters in
// Prometheus text format; /healthz reports per-replica health.
//
// -trace appends one JSONL trace fragment per completed request trace
// to the given file: requests arriving with X-LLM4VV-Trace join the
// caller's distributed trace, the router's routing attempts (owner,
// failover hop, bounded-load spill) record spans under it, and the
// trace headers propagate to the replicas so their spans join too.
// Recent fragments are served on /debug/traces, the slowest span per
// stage is exported as llm4vv_trace_slow_exemplar, and all status
// lines — replica evictions, readmissions, 429 sheds with their
// trace_id — are structured logs (log/slog).
//
// -fault arms deterministic chaos injection from a seeded schedule —
// "<seed>:point=kind[@freq][/dur][#count],..." — at the router's named
// injection points: "remote.send" (connection resets, 5xx, latency,
// torn bodies on the router→replica hop; per-replica sub-points
// "remote.send:<host:port>") and "fleet.probe:<addr>" (failed health
// probes, flapping a replica in and out of the fleet). Identical seeds
// and schedules reproduce identical fault sequences; injected counts
// surface in the llm4vv_resilience_* metric families. See
// docs/OPERATIONS.md §8 for the chaos runbook.
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

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/perf"
	"repro/internal/remote"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated llm4vvd replica addresses (required)")
	id := flag.String("id", "", "router instance name in /healthz and /metrics labels (default: the listen address)")
	loadFactor := flag.Float64("load-factor", fleet.DefaultLoadFactor, "bounded-load spill threshold over the fair per-replica share")
	healthInterval := flag.Duration("health-interval", fleet.DefaultHealthInterval, "background replica health-check period")
	queue := flag.Int("queue", fleet.DefaultQueueLimit, "admission: max in-flight prompts (interactive ceiling)")
	bulkQueue := flag.Int("bulk-queue", 0, "admission ceiling for bulk-class requests (default: half of -queue)")
	clientQuota := flag.Int("client-quota", 0, "max in-flight prompts per client, 0 = unlimited")
	retryAfter := flag.Duration("retry-after", fleet.DefaultRetryAfter, "back-off hint sent with 429 responses")
	traceFile := flag.String("trace", "", "append JSONL trace fragments to this file (also enables /debug/traces)")
	faultSpec := flag.String("fault", "", "chaos testing: seeded deterministic fault schedule, \"<seed>:point=kind[@freq][/dur][#count],...\" (see docs/OPERATIONS.md §8)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at shutdown")
	flag.Parse()

	var injector *fault.Injector
	if *faultSpec != "" {
		var perr error
		injector, perr = fault.Parse(*faultSpec)
		fail(perr)
	}

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	fail(err)
	stopProfiles = stopProf
	defer func() { _ = stopProfiles() }()

	if *replicas == "" {
		fail(fmt.Errorf("-replicas is required (comma-separated llm4vvd addresses)"))
	}
	if *id == "" {
		*id = *addr
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("router_id", *id)
	var tracer *trace.Tracer
	if *traceFile != "" {
		tf, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fail(err)
		defer tf.Close()
		tracer = trace.New(trace.WithWriter(tf), trace.WithProcess("llm4vv-router/"+*id))
	}
	var dialOpts []remote.Option
	if injector != nil {
		// Replica-bound requests traverse the injector's "remote.send"
		// point (per-replica sub-points keyed by host), so resets, 5xx,
		// latency, and torn bodies can be scheduled on the router→replica
		// hop deterministically.
		dialOpts = append(dialOpts, remote.WithHTTPClient(&http.Client{Transport: fault.Transport(injector, "remote.send", nil)}))
		logger.Info("llm4vv-router: chaos fault schedule armed", "seed", injector.Seed(), "spec", *faultSpec)
	}
	router, err := fleet.DialConfig(*replicas, fleet.Config{
		LoadFactor:     *loadFactor,
		HealthInterval: *healthInterval,
		Logger:         logger,
		Fault:          injector,
	}, dialOpts...)
	fail(err)
	frontend := fleet.NewFrontend(fleet.FrontendConfig{
		Router:      router,
		ID:          *id,
		QueueLimit:  *queue,
		BulkLimit:   *bulkQueue,
		ClientQuota: *clientQuota,
		RetryAfter:  *retryAfter,
		Tracer:      tracer,
		Logger:      logger,
		Fault:       injector,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: frontend.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("llm4vv-router: routing", "replicas", *replicas, "addr", *addr, "tracing", *traceFile != "")

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	logger.Info("llm4vv-router: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("llm4vv-router: shutdown", "err", err)
	}
	router.Close()
	rs, fs := router.Stats(), frontend.Stats()
	logger.Info("llm4vv-router: routed",
		"prompts", rs.RoutedPrompts, "requests", rs.Requests, "batch_requests", rs.BatchRequests,
		"failovers", rs.Failovers, "spills", rs.Spills,
		"shed_interactive", fs.ShedInteractive, "shed_bulk", fs.ShedBulk, "quota_rejected", fs.QuotaRejected)
}

// stopProfiles finalises -cpuprofile/-memprofile; fail routes through
// it so a router dying on an error still writes its profiles.
var stopProfiles = func() error { return nil }

func fail(err error) {
	if err != nil {
		_ = stopProfiles()
		fmt.Fprintln(os.Stderr, "llm4vv-router:", err)
		os.Exit(1)
	}
}

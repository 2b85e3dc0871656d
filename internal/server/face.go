package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Endpoint is what a Face serves. Complete must call release exactly
// once, when the prompt's admission slot may be reused: the router on
// return, the daemon's micro-batcher when the prompt resolves, so an
// abandoned prompt keeps its slot. The face releases a batch's slots
// when CompleteBatch returns.
type Endpoint struct {
	Complete      func(ctx context.Context, prompt string, release func()) (string, error)
	CompleteBatch func(ctx context.Context, prompts []string) ([]string, error)
}

// Admission is a Face's admission policy: the daemon's is one queue
// bound, the router's adds priority classes and per-client quotas.
type Admission interface {
	// Ceiling reports the most prompts batch request r could ever be
	// admitted with, naming that limit and the flag that raises it. A
	// batch above it gets a permanent 413, not a 429 no retry cures.
	Ceiling(r *http.Request) (n int, limit, flag string)
	// Admit reserves n prompt slots for r (span is nil when untraced),
	// returning their release, or nil and the 429 message.
	Admit(r *http.Request, span *trace.Span, n int, batch bool) (release func(), refusal string)
}

// Face is the one HTTP implementation of the wire protocol, shared by
// the daemon and llm4vv-router: decoding, the 413/429 admission
// answers, request spans, error statuses, /debug/traces, and the
// /metrics envelope with the slow-exemplar and resilience families.
type Face struct {
	Endpoint  Endpoint
	Admission Admission
	// Span and BatchSpan name the two completion routes' request spans.
	Span, BatchSpan string
	// Instance labels the shared /metrics families.
	Instance [2]string
	// FailStatus answers an endpoint error other than shutdown (503)
	// or the request's own context ending (504).
	FailStatus int
	RetryAfter time.Duration // the 429 back-off hint; 0 means DefaultRetryAfter
	Tracer     *trace.Tracer
	// Fault and Resilience feed the llm4vv_resilience_* families.
	Fault      *fault.Injector
	Resilience any
	// Wrap, when set, wraps only the two completion routes: the
	// daemon's chaos middleware, which must not fault its probes.
	Wrap func(http.Handler) http.Handler
	// Healthz and Backends return the process's own discovery bodies,
	// answered as JSON; Metrics writes its own /metrics families.
	Healthz, Backends func(*http.Request) (status int, body any)
	Metrics           func(*perf.Prom)
}

// Handler returns the face's route table.
func (f *Face) Handler() http.Handler {
	var complete, batch http.Handler = http.HandlerFunc(f.handleComplete), http.HandlerFunc(f.handleCompleteBatch)
	if f.Wrap != nil {
		complete, batch = f.Wrap(complete), f.Wrap(batch)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/complete", complete)
	mux.Handle("/v1/complete_batch", batch)
	for path, body := range map[string]func(*http.Request) (int, any){"/v1/backends": f.Backends, "/healthz": f.Healthz} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			status, v := body(r)
			writeJSON(w, status, v)
		})
	}
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/debug/traces", f.handleDebugTraces)
	return mux
}

func (f *Face) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Prompt == "" {
		writeError(w, http.StatusBadRequest, "empty prompt")
		return
	}
	f.serve(w, r, f.Span, 1, false, func(ctx context.Context, release func()) (any, error) {
		resp, err := f.Endpoint.Complete(ctx, req.Prompt, release)
		return CompleteResponse{Response: resp}, err
	})
}

func (f *Face) handleCompleteBatch(w http.ResponseWriter, r *http.Request) {
	var req CompleteBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	n := len(req.Prompts)
	if n == 0 {
		writeJSON(w, http.StatusOK, CompleteBatchResponse{Responses: []string{}})
		return
	}
	// A shard that can never fit is a configuration error, not
	// overload: answer with a permanent 413 (clients retry 429
	// forever to no avail) naming the fix.
	if ceiling, limit, flag := f.Admission.Ceiling(r); n > ceiling {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d prompts exceeds the %s %d; lower the client shard size or raise %s", n, limit, ceiling, flag))
		return
	}
	f.serve(w, r, f.BatchSpan, n, true, func(ctx context.Context, release func()) (any, error) {
		defer release()
		resps, err := f.Endpoint.CompleteBatch(ctx, req.Prompts)
		return CompleteBatchResponse{Responses: resps}, err
	})
}

// serve runs one decoded request: it opens the request span named
// name (continuing the caller's trace when the propagation headers
// carry one), admits n prompts or answers 429 with a fractional
// Retry-After, and answers with call's body or the status its error
// maps to — shutdown 503, the request's own context ending 504,
// anything else FailStatus.
func (f *Face) serve(w http.ResponseWriter, r *http.Request, name string, n int, batch bool, call func(context.Context, func()) (any, error)) {
	ctx, span := r.Context(), (*trace.Span)(nil)
	if f.Tracer != nil {
		traceHex, spanHex := trace.Extract(r.Header)
		ctx, span = f.Tracer.Join(ctx, traceHex, spanHex, name)
		defer span.End()
		if batch {
			span.SetAttr("prompts", strconv.Itoa(n))
		}
	}
	release, refusal := f.Admission.Admit(r, span, n, batch)
	if release == nil {
		span.SetAttr("shed", "true")
		retry := f.RetryAfter
		if retry <= 0 {
			retry = DefaultRetryAfter
		}
		w.Header().Set("Retry-After", strconv.FormatFloat(retry.Seconds(), 'f', -1, 64))
		writeError(w, http.StatusTooManyRequests, refusal)
		return
	}
	body, err := call(ctx, release)
	if err == nil {
		writeJSON(w, http.StatusOK, body)
		return
	}
	span.SetAttr("error", err.Error())
	status := f.FailStatus
	switch {
	case errors.Is(err, errShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, err.Error())
}

// handleMetrics serves GET /metrics in Prometheus text exposition:
// the process's families, then the slow-exemplar and resilience
// families every face exports. Families come from the perf registry
// (perf.Families), which docs/OPERATIONS.md documents one for one.
func (f *Face) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	p := perf.NewProm(&buf)
	f.Metrics(p)
	emitSlowExemplars(p, f.Tracer, f.Instance)
	emitResilience(p, f.Fault, f.Resilience, f.Instance)
	if err := p.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// handleDebugTraces serves the tracer's recent-fragment ring as a
// JSON array — the quick look before reaching for the JSONL sink.
// Without a tracer it serves an empty array, not an error, so probes
// need no mode awareness.
func (f *Face) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	recent := f.Tracer.Recent()
	if recent == nil {
		recent = []trace.Record{}
	}
	writeJSON(w, http.StatusOK, recent)
}

// emitSlowExemplars writes the llm4vv_trace_slow_exemplar family from
// a tracer's reservoir: one gauge per retained exemplar, valued at
// the span duration in seconds and labelled with the span name and
// trace ID.
func emitSlowExemplars(p *perf.Prom, t *trace.Tracer, instance [2]string) {
	exemplars := t.SlowExemplars()
	if len(exemplars) == 0 {
		return
	}
	samples := make([]perf.Sample, len(exemplars))
	for i, ex := range exemplars {
		samples[i] = perf.Sample{
			Labels: [][2]string{instance, perf.Label("stage", ex.Stage), perf.Label("trace_id", ex.Trace)},
			Value:  time.Duration(ex.DurNS).Seconds(),
		}
	}
	p.Emit(perf.FamTraceSlowExemplar, samples...)
}

// emitResilience writes the llm4vv_resilience_* families: injected
// chaos-fault counts per point, remote-client retries, and per-replica
// circuit-breaker states. The retry and breaker sources are optional
// interfaces matched structurally on source (the remote client
// implements Retries, the fleet router both; local backends neither)
// so this package needs no import of either. Zero-valued series are
// emitted when a source is absent — the families must always appear
// on /metrics, armed or not.
func emitResilience(p *perf.Prom, inj *fault.Injector, source any, instance [2]string) {
	points := inj.Injected()
	if len(points) == 0 {
		p.EmitValue(perf.FamResilienceFaults, 0, instance)
	} else {
		samples := make([]perf.Sample, len(points))
		for i, pc := range points {
			samples[i] = perf.Sample{Labels: [][2]string{instance, perf.Label("point", pc.Point)}, Value: float64(pc.Count)}
		}
		p.Emit(perf.FamResilienceFaults, samples...)
	}
	var retries int64
	if r, ok := source.(interface{ Retries() int64 }); ok {
		retries = r.Retries()
	}
	p.EmitValue(perf.FamResilienceRetries, float64(retries), instance)
	var states []resilience.BreakerStatus
	if b, ok := source.(interface {
		BreakerStates() []resilience.BreakerStatus
	}); ok {
		states = b.BreakerStates()
	}
	if len(states) == 0 {
		p.EmitValue(perf.FamResilienceBreakerState, 0, instance)
		return
	}
	samples := make([]perf.Sample, len(states))
	for i, st := range states {
		samples[i] = perf.Sample{Labels: [][2]string{instance, perf.Label("target", st.ID)}, Value: float64(st.State)}
	}
	p.Emit(perf.FamResilienceBreakerState, samples...)
}

// readJSON decodes a POST body, answering 405/400 itself on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

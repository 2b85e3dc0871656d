package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/trace"
)

// Defaults for FrontendConfig zero values.
const (
	DefaultQueueLimit = 1024
	DefaultRetryAfter = server.DefaultRetryAfter
)

// FrontendConfig configures the router daemon's HTTP face. Router is
// the only required field.
type FrontendConfig struct {
	Router *Router
	// ID names this router instance in /healthz and /metrics labels.
	ID string
	// QueueLimit bounds total admitted in-flight prompts; interactive
	// requests are admitted up to it. Default DefaultQueueLimit.
	QueueLimit int
	// BulkLimit is the lower admission ceiling for bulk-class
	// requests, so sweep traffic sheds (429) before interactive
	// traffic under overload. Default QueueLimit/2.
	BulkLimit int
	// ClientQuota caps one client's in-flight prompts (keyed by the
	// X-LLM4VV-Client header, falling back to the remote address) so a
	// single runaway sweep cannot starve the fleet. 0 disables.
	ClientQuota int
	// RetryAfter is the back-off hint sent with 429 responses.
	// Default DefaultRetryAfter.
	RetryAfter time.Duration
	// Tracer, when set, joins inbound traces (propagation headers),
	// records routing spans, serves /debug/traces, and feeds the
	// slow-exemplar metric family. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Logger receives structured admission events — every 429 shed is
	// logged with its trace_id, priority, and client; nil discards.
	Logger *slog.Logger
	// Fault, when set, is the chaos injector whose injected-fault
	// counts surface in the router's llm4vv_resilience_* metric
	// families (the Router's Config.Fault should reference the same
	// injector). Nil — the production default — reports zeros.
	Fault *fault.Injector
}

// Frontend is the router daemon's HTTP face: the daemon's wire
// protocol (server.Face) over a Router, admitted by classPolicy, plus
// the router's own /healthz, /v1/backends, and /metrics bodies.
// Construct with NewFrontend and mount Handler.
type Frontend struct {
	cfg    FrontendConfig
	rec    *perf.Recorder
	policy *classPolicy
}

// classPolicy is the router's admission policy: priority-class
// ceilings under per-client in-flight quotas.
//
// A request's priority class comes from the X-LLM4VV-Priority header
// ("interactive" or "bulk"); absent the header, single-prompt
// requests default to interactive and batch requests to bulk — the
// batch path is the sweep path, and overload should shed sweeps
// before humans.
type classPolicy struct {
	queueLimit, bulkLimit, clientQuota int
	logger                             *slog.Logger

	inflight atomic.Int64
	mu       sync.Mutex
	clients  map[string]int64

	admittedInteractive atomic.Int64
	admittedBulk        atomic.Int64
	shedInteractive     atomic.Int64
	shedBulk            atomic.Int64
	quotaRejected       atomic.Int64
}

// NewFrontend builds the HTTP face over a Router.
func NewFrontend(cfg FrontendConfig) *Frontend {
	if cfg.Router == nil {
		panic("fleet: FrontendConfig.Router is required")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.BulkLimit <= 0 || cfg.BulkLimit > cfg.QueueLimit {
		cfg.BulkLimit = cfg.QueueLimit / 2
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Frontend{cfg: cfg, rec: perf.NewRecorder(), policy: &classPolicy{
		queueLimit: cfg.QueueLimit, bulkLimit: cfg.BulkLimit, clientQuota: cfg.ClientQuota,
		logger: cfg.Logger, clients: map[string]int64{},
	}}
}

// Stats is a snapshot of the admission counters.
func (f *Frontend) Stats() FrontendStats {
	c := f.policy
	return FrontendStats{
		AdmittedInteractive: c.admittedInteractive.Load(),
		AdmittedBulk:        c.admittedBulk.Load(),
		ShedInteractive:     c.shedInteractive.Load(),
		ShedBulk:            c.shedBulk.Load(),
		QuotaRejected:       c.quotaRejected.Load(),
	}
}

// Handler returns the router daemon's route table — the same paths
// and wire protocol a replica serves, so clients are none the wiser.
func (f *Frontend) Handler() http.Handler {
	face := &server.Face{
		Endpoint:   server.Endpoint{Complete: f.route, CompleteBatch: f.routeBatch},
		Admission:  f.policy,
		Span:       "router.request",
		BatchSpan:  "router.batch_request",
		Instance:   perf.Label("router", f.cfg.ID),
		FailStatus: http.StatusBadGateway,
		RetryAfter: f.cfg.RetryAfter,
		Tracer:     f.cfg.Tracer,
		Fault:      f.cfg.Fault,
		Resilience: f.cfg.Router, // per-replica retries and breaker gauges
		Healthz:    f.healthz,
		Backends:   f.backends,
		Metrics:    f.emitMetrics,
	}
	return face.Handler()
}

// route is the router's single-prompt endpoint. Singles keep the
// replicas' /v1/complete path, so replica-side micro-batching still
// coalesces them; the slot is released on return.
func (f *Frontend) route(ctx context.Context, prompt string, release func()) (string, error) {
	defer release()
	defer func(start time.Time) { f.rec.Observe("route", time.Since(start)) }(time.Now())
	return f.cfg.Router.CompleteContext(ctx, prompt)
}

// routeBatch is the router's batch endpoint: the shard fans out by
// owner, one CompleteBatch wire call per replica.
func (f *Frontend) routeBatch(ctx context.Context, prompts []string) ([]string, error) {
	defer func(start time.Time) { f.rec.Observe("route_batch", time.Since(start)) }(time.Now())
	return f.cfg.Router.CompleteBatch(ctx, prompts)
}

// classOf resolves a request's priority class: the explicit header
// wins, otherwise batch requests are bulk and singles interactive.
func classOf(r *http.Request, batch bool) string {
	switch r.Header.Get(remote.PriorityHeader) {
	case remote.PriorityBulk:
		return remote.PriorityBulk
	case remote.PriorityInteractive:
		return remote.PriorityInteractive
	}
	if batch {
		return remote.PriorityBulk
	}
	return remote.PriorityInteractive
}

// clientOf names the requesting client for quota accounting.
func clientOf(r *http.Request) string {
	if c := r.Header.Get(remote.ClientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Ceiling reports the batch's class ceiling, capped by the client
// quota when one is set.
func (c *classPolicy) Ceiling(r *http.Request) (int, string, string) {
	n, limit, flag := c.queueLimit, "router queue limit", "-queue"
	if classOf(r, true) == remote.PriorityBulk {
		n, limit, flag = c.bulkLimit, "router bulk queue limit", "-bulk-queue"
	}
	if c.clientQuota > 0 && c.clientQuota < n {
		n, limit, flag = c.clientQuota, "router client quota", "-client-quota"
	}
	return n, limit, flag
}

// Admit reserves n prompt slots under the class ceiling and the
// client quota. Every refusal is logged with the identity needed to
// attribute a shed sweep afterwards: the trace (empty when the caller
// sent none), the priority class, and the quota client.
func (c *classPolicy) Admit(r *http.Request, span *trace.Span, n int, batch bool) (func(), string) {
	class, client := classOf(r, batch), clientOf(r)
	span.SetAttr("priority", class)
	limit, shed, admitted := c.queueLimit, &c.shedInteractive, &c.admittedInteractive
	if class == remote.PriorityBulk {
		limit, shed, admitted = c.bulkLimit, &c.shedBulk, &c.admittedBulk
	}
	var refusal string
	if c.inflight.Add(int64(n)) > int64(limit) {
		shed.Add(1)
		refusal = fmt.Sprintf("router overloaded (%s class), retry later", class)
	} else if q := int64(c.clientQuota); q > 0 && c.clientAdd(client, int64(n)) > q {
		c.clientAdd(client, int64(-n))
		c.quotaRejected.Add(1)
		refusal = fmt.Sprintf("client %q exceeds its in-flight quota of %d prompts, retry later", client, q)
	}
	if refusal != "" {
		c.inflight.Add(int64(-n))
		c.logger.Warn("router: request shed (429)",
			"trace_id", span.TraceHex(), "priority", class, "client", client, "prompts", n)
		return nil, refusal
	}
	admitted.Add(int64(n))
	return func() {
		c.inflight.Add(int64(-n))
		if c.clientQuota > 0 {
			c.clientAdd(client, int64(-n))
		}
	}, ""
}

// clientAdd adjusts one client's in-flight count, dropping zeroed
// entries so the table tracks only active clients.
func (c *classPolicy) clientAdd(client string, n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.clients[client] + n
	if v <= 0 {
		delete(c.clients, client)
		return v
	}
	c.clients[client] = v
	return v
}

// backends answers /v1/backends on the fleet's behalf: the Router's
// description (Router.Info) stamped with the router's ID. A fleet with
// no describable replica still reports its shape.
func (f *Frontend) backends(r *http.Request) (int, any) {
	info, _ := f.cfg.Router.Info(r.Context())
	info.ReplicaID = f.cfg.ID
	return http.StatusOK, info
}

// healthz is the router's /healthz body: healthy while at least one
// replica is.
func (f *Frontend) healthz(*http.Request) (int, any) {
	replicas := f.cfg.Router.Replicas()
	ok := false
	for _, rs := range replicas {
		if rs.Healthy {
			ok = true
			break
		}
	}
	status := http.StatusOK
	if !ok {
		// No healthy replica: report unhealthy so load balancers and
		// the remote client's Ping fail over to another router.
		status = http.StatusServiceUnavailable
	}
	return status, HealthResponse{
		OK:       ok,
		RouterID: f.cfg.ID,
		Replicas: replicas,
		Routing:  f.cfg.Router.Stats(),
		Serving:  f.Stats(),
	}
}

// emitMetrics writes the router's /metrics families: admission
// counters by priority class, routing counters, per-replica health
// and traffic, and the route-stage latency summaries.
func (f *Frontend) emitMetrics(p *perf.Prom) {
	router := perf.Label("router", f.cfg.ID)
	rs := f.cfg.Router.Stats()
	fs := f.Stats()
	p.Emit(perf.FamRouterAdmitted,
		perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityInteractive)}, Value: float64(fs.AdmittedInteractive)},
		perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityBulk)}, Value: float64(fs.AdmittedBulk)},
	)
	p.Emit(perf.FamRouterShed,
		perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityInteractive)}, Value: float64(fs.ShedInteractive)},
		perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityBulk)}, Value: float64(fs.ShedBulk)},
	)
	p.EmitValue(perf.FamRouterQuotaRejected, float64(fs.QuotaRejected), router)
	p.EmitValue(perf.FamRouterRequests, float64(rs.Requests), router)
	p.EmitValue(perf.FamRouterBatchRequests, float64(rs.BatchRequests), router)
	p.EmitValue(perf.FamRouterRoutedPrompts, float64(rs.RoutedPrompts), router)
	p.EmitValue(perf.FamRouterFailovers, float64(rs.Failovers), router)
	p.EmitValue(perf.FamRouterSpills, float64(rs.Spills), router)
	p.EmitValue(perf.FamRouterInflight, float64(f.policy.inflight.Load()), router)
	replicas := f.cfg.Router.Replicas()
	healthy := make([]perf.Sample, len(replicas))
	prompts := make([]perf.Sample, len(replicas))
	failures := make([]perf.Sample, len(replicas))
	for i, st := range replicas {
		labels := [][2]string{router, perf.Label("replica", st.Addr)}
		v := 0.0
		if st.Healthy {
			v = 1
		}
		healthy[i] = perf.Sample{Labels: labels, Value: v}
		prompts[i] = perf.Sample{Labels: labels, Value: float64(st.Prompts)}
		failures[i] = perf.Sample{Labels: labels, Value: float64(st.Failures)}
	}
	p.Emit(perf.FamRouterReplicaHealthy, healthy...)
	p.Emit(perf.FamRouterReplicaPrompts, prompts...)
	p.Emit(perf.FamRouterReplicaFailures, failures...)
	p.EmitSummaries(perf.FamRouterStageSeconds, f.rec.Snapshot(), router)
}

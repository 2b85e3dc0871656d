package perf

// The metric-family registry: every Prometheus family the daemon and
// router /metrics endpoints can export, declared once with its type
// and HELP text. Emission sites (internal/server, internal/fleet) go
// through these defs instead of repeating name/type/help strings, so
// the registry is the single source of truth for what the system
// exports — docs/OPERATIONS.md documents exactly this list, and a
// test in this package diffs the two (a family added here without a
// runbook entry, or documented without existing, fails CI).

// FamilyDef declares one metric family: its exposition name, type
// ("counter", "gauge", or "summary"), and HELP text.
type FamilyDef struct {
	Name string
	Type string
	Help string
}

// Daemon (llm4vvd) families, labelled replica="<name>".
var (
	FamRequests         = FamilyDef{"llm4vv_requests_total", "counter", "Admitted single-prompt requests."}
	FamBatchRequests    = FamilyDef{"llm4vv_batch_requests_total", "counter", "Admitted batch requests."}
	FamRejected         = FamilyDef{"llm4vv_rejected_total", "counter", "Requests refused with 429 by admission control."}
	FamEndpointCalls    = FamilyDef{"llm4vv_endpoint_calls_total", "counter", "Calls made to the fronted endpoint."}
	FamEndpointPrompts  = FamilyDef{"llm4vv_endpoint_prompts_total", "counter", "Prompts submitted to the fronted endpoint."}
	FamCoalescedBatches = FamilyDef{"llm4vv_coalesced_batches_total", "counter", "Micro-batches that merged two or more requests."}
	FamStoreHits        = FamilyDef{"llm4vv_store_hits_total", "counter", "Prompts resolved from the run store or intra-shard dedup."}
	FamGatherDelay      = FamilyDef{"llm4vv_gather_delay_seconds", "gauge", "How long the most recent micro-batch waited on an in-flight flush (0 when it dispatched at once)."}
	FamInflight         = FamilyDef{"llm4vv_inflight_prompts", "gauge", "Prompts admitted and not yet answered."}
	FamStageSeconds     = FamilyDef{"llm4vv_stage_seconds", "summary", "Per-stage latency quantiles (resolve = one shard, endpoint = one fronted call)."}
)

// Daemon run-store families (exported only when the daemon holds a
// store), labelled replica="<name>".
var (
	FamStoreKeys         = FamilyDef{"llm4vv_store_keys", "gauge", "Distinct keys in the run store (active + sealed segments)."}
	FamStoreSegments     = FamilyDef{"llm4vv_store_segments", "gauge", "Sealed segment files in the run store."}
	FamStoreActiveBytes  = FamilyDef{"llm4vv_store_active_bytes", "gauge", "Bytes in the run store's active segment (buffered included)."}
	FamStoreDropped      = FamilyDef{"llm4vv_store_dropped_lines", "gauge", "Corrupt or truncated store lines skipped at open."}
	FamStoreMergeFailing = FamilyDef{"llm4vv_store_merge_failing", "gauge", "1 while the last background segment merge failed, else 0."}
)

// Router (llm4vv-router) families, labelled router="<name>" (some
// additionally priority="<class>" or replica="<addr>").
var (
	FamRouterAdmitted        = FamilyDef{"llm4vv_router_admitted_total", "counter", "Prompts admitted, by priority class."}
	FamRouterShed            = FamilyDef{"llm4vv_router_shed_total", "counter", "Requests refused with 429 at the class admission ceilings."}
	FamRouterQuotaRejected   = FamilyDef{"llm4vv_router_quota_rejected_total", "counter", "Requests refused for exceeding a per-client quota."}
	FamRouterRequests        = FamilyDef{"llm4vv_router_requests_total", "counter", "Single-prompt routing requests."}
	FamRouterBatchRequests   = FamilyDef{"llm4vv_router_batch_requests_total", "counter", "Batch routing requests."}
	FamRouterRoutedPrompts   = FamilyDef{"llm4vv_router_routed_prompts_total", "counter", "Prompts delivered to replicas."}
	FamRouterFailovers       = FamilyDef{"llm4vv_router_failovers_total", "counter", "Requests moved to a ring successor after a replica failure."}
	FamRouterSpills          = FamilyDef{"llm4vv_router_spills_total", "counter", "Bounded-load placements past an overloaded owner."}
	FamRouterInflight        = FamilyDef{"llm4vv_router_inflight_prompts", "gauge", "Prompts admitted and not yet answered."}
	FamRouterReplicaHealthy  = FamilyDef{"llm4vv_router_replica_healthy", "gauge", "Replica ring membership: 1 healthy, 0 evicted."}
	FamRouterReplicaPrompts  = FamilyDef{"llm4vv_router_replica_prompts_total", "counter", "Prompts answered per replica."}
	FamRouterReplicaFailures = FamilyDef{"llm4vv_router_replica_failures_total", "counter", "Failed requests per replica."}
	FamRouterStageSeconds    = FamilyDef{"llm4vv_router_stage_seconds", "summary", "Routing latency quantiles (route = one prompt, route_batch = one shard)."}
)

// Tracing families, exported by both daemon and router when a tracer
// is mounted; labelled with the owning instance (replica= or router=)
// plus stage="<span name>" and trace_id="<hex>".
var (
	FamTraceSlowExemplar = FamilyDef{"llm4vv_trace_slow_exemplar", "gauge", "Slowest recent trace per span name: value is the span duration in seconds, trace_id labels the trace to pull from /debug/traces or the JSONL sink."}
)

// Resilience families, exported by both daemon and router; labelled
// with the owning instance (replica= or router=). The families are
// always present — zero-valued series are emitted when the source is
// absent — so dashboards and alerts can rely on their existence.
var (
	FamResilienceFaults       = FamilyDef{"llm4vv_resilience_faults_injected_total", "counter", "Deterministic chaos faults injected, by injection point (0 unless a -fault schedule is armed)."}
	FamResilienceRetries      = FamilyDef{"llm4vv_resilience_retries_total", "counter", "Remote-client request retries after transient failures (backoff sleeps taken)."}
	FamResilienceBreakerState = FamilyDef{"llm4vv_resilience_breaker_state", "gauge", "Per-target circuit-breaker state: 0 closed, 1 half-open, 2 open."}
)

// Families returns every registered metric family, daemon first, in
// exposition order. New families must be added here as well as
// declared above — the docs-diff test walks this list.
func Families() []FamilyDef {
	return []FamilyDef{
		FamRequests,
		FamBatchRequests,
		FamRejected,
		FamEndpointCalls,
		FamEndpointPrompts,
		FamCoalescedBatches,
		FamStoreHits,
		FamGatherDelay,
		FamInflight,
		FamStageSeconds,
		FamStoreKeys,
		FamStoreSegments,
		FamStoreActiveBytes,
		FamStoreDropped,
		FamStoreMergeFailing,
		FamRouterAdmitted,
		FamRouterShed,
		FamRouterQuotaRejected,
		FamRouterRequests,
		FamRouterBatchRequests,
		FamRouterRoutedPrompts,
		FamRouterFailovers,
		FamRouterSpills,
		FamRouterInflight,
		FamRouterReplicaHealthy,
		FamRouterReplicaPrompts,
		FamRouterReplicaFailures,
		FamRouterStageSeconds,
		FamTraceSlowExemplar,
		FamResilienceFaults,
		FamResilienceRetries,
		FamResilienceBreakerState,
	}
}

// Emit writes a def's family with the given samples: Counter/Gauge
// semantics for one- or many-series families. Summary defs go through
// EmitSummaries.
func (p *Prom) Emit(d FamilyDef, samples ...Sample) {
	p.Family(d.Name, d.Type, d.Help, samples...)
}

// EmitValue writes a def's family as a single series.
func (p *Prom) EmitValue(d FamilyDef, value float64, labels ...[2]string) {
	p.Emit(d, Sample{Labels: labels, Value: value})
}

// EmitSummaries writes a summary def from Recorder stage snapshots.
func (p *Prom) EmitSummaries(d FamilyDef, stages []StageStats, labels ...[2]string) {
	p.Summaries(d.Name, d.Help, stages, labels...)
}

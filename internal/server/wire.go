// Package server implements the judging daemon behind cmd/llm4vvd: an
// HTTP front for any judge.LLM endpoint. It exposes
//
//	POST /v1/complete        {"prompt": ...}    -> {"response": ...}
//	POST /v1/complete_batch  {"prompts": [...]} -> {"responses": [...]}
//	GET  /v1/backends                           -> what is served and registered
//	GET  /healthz                               -> liveness plus serving stats
//	GET  /metrics                               -> Prometheus text exposition
//
// The server's core is a work-conserving micro-batcher: a lone
// single-prompt request dispatches at once, and requests arriving
// while an endpoint call is in flight coalesce — up to
// Config.BatchMaxSize prompts — into one CompleteBatch call when the
// fronted endpoint implements judge.BatchLLM, so many independent
// workers hitting /v1/complete cost far fewer endpoint round-trips
// than requests. Admission is
// bounded: at most Config.QueueLimit prompts may be queued or in
// flight, and requests beyond that are refused immediately with 429
// and a Retry-After hint rather than queued without bound. Request
// deadlines propagate: the handler works under the request's context,
// which net/http cancels when the client disconnects or its deadline
// passes.
//
// Concurrent requests for the same prompt share one endpoint call
// through a judge.Inflight table, with or without a store. With a run
// store mounted (Config.Store), every completion is also recorded
// keyed by (backend, seed, prompt hash) and identical requests — from
// any number of workers, across daemon restarts — resolve to the
// stored response without touching the endpoint: distributed verdict
// dedup.
package server

// CompleteRequest is the body of POST /v1/complete.
type CompleteRequest struct {
	Prompt string `json:"prompt"`
}

// CompleteResponse is the success body of POST /v1/complete.
type CompleteResponse struct {
	Response string `json:"response"`
}

// CompleteBatchRequest is the body of POST /v1/complete_batch. The
// whole shard is resolved as one unit (one endpoint call for batch-
// capable backends) and responses come back in prompt order.
type CompleteBatchRequest struct {
	Prompts []string `json:"prompts"`
}

// CompleteBatchResponse is the success body of POST /v1/complete_batch.
type CompleteBatchResponse struct {
	Responses []string `json:"responses"`
}

// BackendsResponse is the body of GET /v1/backends: the backend this
// daemon instance serves (name and seed are fixed at daemon start;
// a client-side seed is ignored) plus every name registered in the
// daemon's backend registry.
type BackendsResponse struct {
	Serving    string   `json:"serving"`
	Seed       uint64   `json:"seed"`
	Batch      bool     `json:"batch"`
	Registered []string `json:"registered,omitempty"`

	// ReplicaID names the answering daemon instance (Config.ReplicaID;
	// llm4vvd defaults it to its listen address) so fleet logs, metric
	// labels, and failover tests can tell replicas apart.
	ReplicaID string `json:"replica_id,omitempty"`
	// Replicas lists the fleet members behind an llm4vv-router
	// answering on a daemon's behalf; empty for a bare daemon.
	Replicas []string `json:"replicas,omitempty"`

	// PanelMembers and PanelStrategy describe the served voting panel
	// when the daemon fronts an ensemble backend (empty for
	// single-judge backends).
	PanelMembers  []string `json:"panel_members,omitempty"`
	PanelStrategy string   `json:"panel_strategy,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	OK      bool   `json:"ok"`
	Backend string `json:"backend"`
	Seed    uint64 `json:"seed"`
	// ReplicaID is the stable instance name (see
	// BackendsResponse.ReplicaID).
	ReplicaID string `json:"replica_id,omitempty"`
	Stats     Stats  `json:"stats"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Stats are the daemon's serving counters, exposed by Server.Stats
// and /healthz. EndpointCalls < Requests+BatchRequests is the
// signature of micro-batching and dedup doing their job.
type Stats struct {
	// Requests counts admitted /v1/complete requests.
	Requests int64 `json:"requests"`
	// BatchRequests counts admitted /v1/complete_batch requests.
	BatchRequests int64 `json:"batch_requests"`
	// Rejected counts requests refused with 429 by admission control.
	Rejected int64 `json:"rejected"`
	// EndpointCalls counts calls made to the fronted endpoint
	// (one per CompleteBatch shard for batch-capable backends).
	EndpointCalls int64 `json:"endpoint_calls"`
	// EndpointPrompts counts prompts submitted to the endpoint.
	EndpointPrompts int64 `json:"endpoint_prompts"`
	// Coalesced counts micro-batches that merged two or more
	// concurrent /v1/complete requests into one dispatch.
	Coalesced int64 `json:"coalesced"`
	// StoreHits counts prompts resolved without an endpoint call of
	// their own: from the mounted run store, or deduplicated against
	// an identical prompt in the same shard or in flight for a
	// concurrent request.
	StoreHits int64 `json:"store_hits"`
	// GatherDelayNS is how long the most recent micro-batch waited on
	// an in-flight flush, in nanoseconds; 0 when it dispatched at once.
	GatherDelayNS int64 `json:"gather_delay_ns"`
}

// Package remote implements the client side of the judging service:
// a backend that satisfies judge.LLM, judge.ContextLLM, and
// judge.BatchLLM by forwarding prompts to a running llm4vvd daemon
// over HTTP. Named "remote:<addr>" as a backend (llm4vv.NewBackend),
// it lets every existing experiment — part1, part2, ablations,
// genloop, compare — run unmodified against a daemon, which is how
// one judging service absorbs the load of many worker processes.
//
// The client is built for flaky networks and busy daemons: transient
// failures (connection errors, torn response bodies, 429 overload
// rejections, 5xx) are retried under the unified resilience policy —
// jittered exponential backoff honouring the daemon's Retry-After
// hint when one comes back, including an explicit zero meaning
// "retry immediately", but never waiting past the caller's context
// deadline budget (a hint that cannot fit the remaining budget fails
// immediately instead of parking the client) — while permanent 4xx
// errors and context cancellation fail immediately. Connections are
// reused across requests via a shared keep-alive transport sized for
// the Runner's worker fan-out.
//
// A Backend talks to one daemon or router. Failover across a replica
// list is the fleet Router's job (internal/fleet), which holds one
// Backend per replica.
//
// A Backend sends neither fleet admission header. A router classes
// its unlabelled requests by shape (a batch is bulk, the class it
// sheds first under overload; a single prompt is interactive) and
// keys its per-client quota on the connection's remote host; other
// clients may set PriorityHeader and ClientHeader themselves —
// semantics in docs/OPERATIONS.md.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/trace"
)

// Defaults for New's option zero values.
const (
	DefaultRetries = 5
	DefaultBackoff = 25 * time.Millisecond
	maxBackoff     = 2 * time.Second
)

// transport is shared by every Backend so all clients in a process
// pool connections together.
var transport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     90 * time.Second,
}

// Request headers the routing tier reads; the class names are the
// values PriorityHeader carries.
const (
	// PriorityHeader carries a request's priority class to the
	// llm4vv-router admission layer: interactive requests survive
	// overload longest, bulk-sweep traffic is shed first.
	PriorityHeader = "X-LLM4VV-Priority"
	// ClientHeader names the requesting client for the router's
	// per-client admission quotas; absent, the router falls back to
	// the connection's remote address.
	ClientHeader = "X-LLM4VV-Client"

	PriorityInteractive = "interactive"
	PriorityBulk        = "bulk"
)

// Backend is a remote judging endpoint: one daemon or router.
// Construct with New; the zero value is not usable.
type Backend struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration

	policy  *resilience.Policy
	retried atomic.Int64 // retry waits performed (metrics)
}

// Option configures a Backend.
type Option func(*Backend)

// WithRetries sets how many times a transient failure is retried
// before it is surfaced (so a request costs at most retries+1
// attempts). Negative values mean no retries.
func WithRetries(n int) Option { return func(b *Backend) { b.retries = n } }

// WithBackoff sets the base retry delay; attempt k waits
// backoff·2^k plus up to 50% jitter, capped at 2s, unless the daemon
// sent a longer Retry-After hint.
func WithBackoff(d time.Duration) Option { return func(b *Backend) { b.backoff = d } }

// WithHTTPClient substitutes the HTTP client (tests inject
// httptest clients; production code keeps the shared transport).
func WithHTTPClient(hc *http.Client) Option { return func(b *Backend) { b.hc = hc } }

// New returns a client for the daemon or router at addr ("host:port"
// or a full http:// URL).
func New(addr string, opts ...Option) *Backend {
	base := strings.TrimSuffix(strings.TrimSpace(addr), "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	b := &Backend{
		base:    base,
		hc:      &http.Client{Transport: transport},
		retries: DefaultRetries,
		backoff: DefaultBackoff,
	}
	for _, opt := range opts {
		opt(b)
	}
	b.policy = resilience.NewPolicy(b.backoff, maxBackoff)
	return b
}

// Retries reports how many retry waits the client has performed —
// the series behind llm4vv_resilience_retries_total on endpoints
// fronting this client.
func (b *Backend) Retries() int64 { return b.retried.Load() }

// Complete implements judge.LLM. The error-free contract has nowhere
// to surface a network failure, so one maps to an empty response
// (parsed downstream as an unparsable verdict); callers that can
// handle errors use CompleteContext, which Evaluate prefers
// automatically.
func (b *Backend) Complete(prompt string) string {
	resp, err := b.CompleteContext(context.Background(), prompt)
	if err != nil {
		return ""
	}
	return resp
}

// CompleteContext implements judge.ContextLLM against /v1/complete.
func (b *Backend) CompleteContext(ctx context.Context, prompt string) (string, error) {
	var out server.CompleteResponse
	if err := b.post(ctx, "/v1/complete", server.CompleteRequest{Prompt: prompt}, &out); err != nil {
		return "", err
	}
	return out.Response, nil
}

// CompleteBatch implements judge.BatchLLM against /v1/complete_batch:
// a whole shard of prompts crosses the wire in one request and is
// resolved server-side as one unit.
func (b *Backend) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	var out server.CompleteBatchResponse
	if err := b.post(ctx, "/v1/complete_batch", server.CompleteBatchRequest{Prompts: prompts}, &out); err != nil {
		return nil, err
	}
	if len(out.Responses) != len(prompts) {
		return nil, fmt.Errorf("remote: daemon returned %d responses for %d prompts", len(out.Responses), len(prompts))
	}
	return out.Responses, nil
}

// Info fetches a daemon's /v1/backends description: what backend it
// serves under which seed, whether it batches, and — when it fronts a
// voting ensemble — the panel members and strategy. Front-ends use it
// to fail fast when an experiment needs a panel but the daemon serves
// a single judge.
func (b *Backend) Info(ctx context.Context) (server.BackendsResponse, error) {
	var out server.BackendsResponse
	err := b.get(ctx, "/v1/backends", &out)
	return out, err
}

// Ping checks daemon liveness via /healthz — how front-ends fail fast
// on a bad -serve-addr before starting a sweep, and how the fleet
// Router probes its replicas.
func (b *Backend) Ping(ctx context.Context) error { return b.get(ctx, "/healthz", nil) }

// get issues one GET, requires a 200, and decodes the body into out
// unless out is nil.
func (b *Backend) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return fmt.Errorf("remote: daemon at %s unreachable: %w", b.base, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote: daemon at %s: %s %s", b.base, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("remote: daemon at %s: decoding %s: %w", b.base, path, err)
	}
	return nil
}

// post submits one JSON request with retry-on-transient-failure
// semantics and decodes the success body into out.
//
// When the context carries a trace span, the whole call — retries
// included — is recorded as one "remote.call" child span whose ID is
// injected into the propagation headers, so the daemon's server-side
// spans parent under this client-side interval.
func (b *Backend) post(ctx context.Context, path string, in, out any) error {
	ctx, span := trace.Start(ctx, "remote.call")
	if span == nil {
		return b.doPost(ctx, path, in, out)
	}
	span.SetAttr("path", path)
	err := b.doPost(ctx, path, in, out)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return err
}

func (b *Backend) doPost(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		trace.Inject(ctx, req.Header)
		resp, err := b.hc.Do(req)
		var retryAfter time.Duration
		var hasHint bool
		switch {
		case err != nil:
			// Connection-level failure. The request context's own end
			// is permanent; everything else is worth retrying.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
		case resp.StatusCode == http.StatusOK:
			data, derr := io.ReadAll(resp.Body)
			drain(resp)
			if derr == nil {
				if derr = json.Unmarshal(data, out); derr == nil {
					return nil
				}
			}
			// Torn, truncated, or otherwise undecodable success body.
			// Nothing half-parsed may reach the caller, and the bytes on
			// the wire are as transient as a dropped connection — retry.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("remote: daemon at %s: decoding %s response: %w", b.base, path, derr)
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			lastErr = httpError(resp)
			retryAfter, hasHint = parseRetryAfter(resp.Header.Get("Retry-After"))
			drain(resp)
		default:
			err := httpError(resp)
			drain(resp)
			return err
		}
		if attempt >= b.retries {
			return fmt.Errorf("remote: %s failed after %d attempts: %w", path, attempt+1, lastErr)
		}
		b.retried.Add(1)
		if err := b.policy.Sleep(ctx, attempt, retryAfter, hasHint); err != nil {
			return err
		}
	}
}

// httpError renders a non-2xx response as an error, preferring the
// daemon's structured message.
func httpError(resp *http.Response) error {
	var e server.ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("remote: daemon: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("remote: daemon: %s", resp.Status)
}

// parseRetryAfter reads the Retry-After header; the daemon writes
// fractional seconds, and plain integer seconds parse too. The second
// return distinguishes a parsed hint — zero included — from an absent
// or malformed header. Negative, NaN and infinite values, and hints
// too long for a time.Duration, count as malformed.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.ParseFloat(v, 64)
	ns := secs * float64(time.Second)
	if err != nil || !(secs >= 0) || ns >= math.MaxInt64 {
		return 0, false
	}
	return time.Duration(ns), true
}

// drain discards any unread body so the keep-alive connection is
// reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

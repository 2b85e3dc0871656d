package remote_test

// Tests for the remote backend client: transient failures (connection
// drops, 429 overload, 5xx) retry with backoff and eventually succeed
// or surface a useful error; permanent 4xx failures and context
// deadlines fail immediately. Handlers are scripted, so every
// scenario is deterministic.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/server"
)

// scripted answers each attempt according to a status script, then
// succeeds forever.
type scripted struct {
	attempts atomic.Int64
	script   []int // status per attempt; beyond the script, 200
	retryHdr string
}

func (s *scripted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := int(s.attempts.Add(1)) - 1
	if n < len(s.script) {
		if s.retryHdr != "" {
			w.Header().Set("Retry-After", s.retryHdr)
		}
		w.WriteHeader(s.script[n])
		_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "scripted failure"})
		return
	}
	var req server.CompleteRequest
	_ = json.NewDecoder(r.Body).Decode(&req)
	_ = json.NewEncoder(w).Encode(server.CompleteResponse{Response: "ok:" + req.Prompt})
}

func client(ts *httptest.Server, retries int) *remote.Backend {
	return remote.New(ts.URL, remote.WithRetries(retries), remote.WithBackoff(time.Millisecond))
}

func TestRetriesTransient5xx(t *testing.T) {
	h := &scripted{script: []int{http.StatusInternalServerError, http.StatusBadGateway}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	b := client(ts, 3)
	resp, err := b.CompleteContext(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "ok:p" {
		t.Fatalf("got %q", resp)
	}
	if got := h.attempts.Load(); got != 3 {
		t.Errorf("took %d attempts, want 3 (2 failures + success)", got)
	}
	if got := b.Retries(); got != 2 {
		t.Errorf("Retries() = %d, want 2 (one wait per 5xx)", got)
	}
}

func TestRetries429WithRetryAfter(t *testing.T) {
	h := &scripted{script: []int{http.StatusTooManyRequests}, retryHdr: "0.01"}
	ts := httptest.NewServer(h)
	defer ts.Close()
	start := time.Now()
	resp, err := client(ts, 2).CompleteContext(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "ok:p" {
		t.Fatalf("got %q", resp)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("retried after %v, should have honoured Retry-After of 10ms", elapsed)
	}
}

func TestRetryAfterZeroRetriesImmediately(t *testing.T) {
	// An explicit "Retry-After: 0" is the daemon saying "now", not "no
	// hint": the client must retry immediately instead of falling back
	// to full exponential backoff.
	h := &scripted{script: []int{http.StatusTooManyRequests, http.StatusTooManyRequests}, retryHdr: "0"}
	ts := httptest.NewServer(h)
	defer ts.Close()
	b := remote.New(ts.URL, remote.WithRetries(2), remote.WithBackoff(500*time.Millisecond))
	start := time.Now()
	resp, err := b.CompleteContext(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "ok:p" {
		t.Fatalf("got %q", resp)
	}
	// With backoff 500ms, ignoring the zero hint would take >= 1s for
	// the two retries; honouring it finishes in milliseconds.
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("took %v; an explicit Retry-After: 0 should retry immediately", elapsed)
	}
	if got := h.attempts.Load(); got != 3 {
		t.Errorf("made %d attempts, want 3", got)
	}
}

func TestPermanent4xxFailsImmediately(t *testing.T) {
	h := &scripted{script: []int{http.StatusBadRequest, http.StatusBadRequest, http.StatusBadRequest}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	_, err := client(ts, 5).CompleteContext(context.Background(), "p")
	if err == nil {
		t.Fatal("expected an error on 400")
	}
	if got := h.attempts.Load(); got != 1 {
		t.Errorf("client retried a permanent 400 (%d attempts)", got)
	}
	if !strings.Contains(err.Error(), "scripted failure") {
		t.Errorf("error lost the daemon's message: %v", err)
	}
}

func TestRetriesExhausted(t *testing.T) {
	h := &scripted{script: []int{503, 503, 503, 503, 503, 503, 503, 503}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	_, err := client(ts, 2).CompleteContext(context.Background(), "p")
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if got := h.attempts.Load(); got != 3 {
		t.Errorf("made %d attempts with 2 retries, want 3", got)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not report attempts: %v", err)
	}
}

func TestConnectionErrorRetriesThenFails(t *testing.T) {
	// A port nothing listens on: every attempt is a connection error.
	b := remote.New("127.0.0.1:1", remote.WithRetries(2), remote.WithBackoff(time.Millisecond))
	_, err := b.CompleteContext(context.Background(), "p")
	if err == nil {
		t.Fatal("expected a connection error")
	}
	// The error-free judge.LLM contract maps the same failure to an
	// empty response rather than a panic.
	if resp := b.Complete("p"); resp != "" {
		t.Errorf("Complete on dead daemon returned %q, want empty", resp)
	}
}

func TestDeadlineCutsRetryLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	b := remote.New(ts.URL, remote.WithRetries(1000), remote.WithBackoff(5*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.CompleteContext(ctx, "p")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

func TestZeroBackoffRetriesImmediately(t *testing.T) {
	h := &scripted{script: []int{503, 503}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	b := remote.New(ts.URL, remote.WithRetries(2), remote.WithBackoff(0))
	if _, err := b.CompleteContext(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if got := h.attempts.Load(); got != 3 {
		t.Errorf("made %d attempts, want 3", got)
	}
}

// TestPriorityAndClientHeaders: a Backend sends neither fleet admission
// header, on singles or batches, so a router classes its requests by
// shape (a batch is bulk) and keys its quota on the remote host.
func TestPriorityAndClientHeaders(t *testing.T) {
	var sent atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent.Store(r.Header.Get(remote.PriorityHeader) + r.Header.Get(remote.ClientHeader))
		if r.URL.Path == "/v1/complete_batch" {
			_ = json.NewEncoder(w).Encode(server.CompleteBatchResponse{Responses: []string{"ok"}})
			return
		}
		_ = json.NewEncoder(w).Encode(server.CompleteResponse{Response: "ok"})
	}))
	defer ts.Close()
	b := remote.New(ts.URL)
	if _, err := b.CompleteContext(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if got := sent.Load(); got != "" {
		t.Errorf("single request carried admission headers %q", got)
	}
	if _, err := b.CompleteBatch(context.Background(), []string{"p"}); err != nil {
		t.Fatal(err)
	}
	if got := sent.Load(); got != "" {
		t.Errorf("batch request carried admission headers %q", got)
	}
}

func TestBatchLengthMismatchRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.CompleteBatchResponse{Responses: []string{"only-one"}})
	}))
	defer ts.Close()
	_, err := client(ts, 0).CompleteBatch(context.Background(), []string{"a", "b"})
	if err == nil || !strings.Contains(err.Error(), "1 responses for 2 prompts") {
		t.Fatalf("mismatched batch not rejected: %v", err)
	}
}

// torn answers each scripted attempt with a truncated JSON body (the
// connection "cut" mid-response), then full responses forever.
type torn struct {
	attempts atomic.Int64
	cut      int // attempts that send truncated bodies
}

func (s *torn) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req server.CompleteRequest
	_ = json.NewDecoder(r.Body).Decode(&req)
	full, _ := json.Marshal(server.CompleteResponse{Response: "ok:" + req.Prompt})
	if int(s.attempts.Add(1)) <= s.cut {
		// Claim the full length but deliver half: the client sees a
		// mid-object EOF, exactly what a dropped connection produces.
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		_, _ = w.Write(full[:len(full)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	_, _ = w.Write(full)
}

func TestTornBodyRetriedToSuccess(t *testing.T) {
	h := &torn{cut: 2}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := client(ts, 3).CompleteContext(context.Background(), "p")
	if err != nil {
		t.Fatalf("torn bodies not retried: %v", err)
	}
	if resp != "ok:p" {
		t.Fatalf("got %q, want the intact retry's response", resp)
	}
	if got := h.attempts.Load(); got != 3 {
		t.Errorf("took %d attempts, want 3 (2 torn + success)", got)
	}
}

func TestTornBodyExhaustionFailsCleanly(t *testing.T) {
	// Every attempt torn: the client must surface an error — never a
	// half-parsed completion.
	h := &torn{cut: 100}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := client(ts, 2).CompleteContext(context.Background(), "p")
	if err == nil {
		t.Fatalf("exhausted torn responses returned %q without error", resp)
	}
	if resp != "" {
		t.Fatalf("half-parsed completion leaked: %q", resp)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not report exhaustion: %v", err)
	}
}

func TestPartialJSONNeverHalfParsed(t *testing.T) {
	// A complete HTTP response whose body is syntactically truncated
	// JSON (no connection cut): still retry-or-fail, never half-parse.
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			_, _ = w.Write([]byte(`{"response":"truncat`))
			return
		}
		_ = json.NewEncoder(w).Encode(server.CompleteResponse{Response: "intact"})
	}))
	defer ts.Close()
	resp, err := client(ts, 2).CompleteContext(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "intact" {
		t.Fatalf("got %q, want %q", resp, "intact")
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("took %d attempts, want 2", got)
	}
}

func TestRetryAfterClampedByDeadlineBudget(t *testing.T) {
	// An adversarial daemon sends a Retry-After hint far past the
	// caller's deadline. The client must fail immediately — with the
	// deadline as the cause — instead of parking for the full hint.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	b := remote.New(ts.URL, remote.WithRetries(5), remote.WithBackoff(time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.CompleteContext(ctx, "p")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want a deadline-classified error", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("client parked %v on an hour-long Retry-After with a 100ms budget", elapsed)
	}
}

package server_test

// Tests for the judging daemon: wire round-trip parity with the
// in-process endpoint, micro-batch coalescing under concurrent
// single-prompt clients, admission-control 429s under overload,
// deadline propagation, and store-backed dedup across server
// restarts — all against the deterministic simulated backend and
// loopback httptest servers, so nothing here depends on network
// timing for correctness.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/store"
)

// countingLLM wraps an endpoint and counts calls reaching it.
type countingLLM struct {
	inner judge.LLM
	calls atomic.Int64 // endpoint calls (single or batch)
	sent  atomic.Int64 // prompts submitted
	delay time.Duration
	gate  chan struct{} // when non-nil, every call blocks until it closes
}

func (c *countingLLM) Complete(prompt string) string {
	c.calls.Add(1)
	c.sent.Add(1)
	c.wait()
	return c.inner.Complete(prompt)
}

func (c *countingLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	c.calls.Add(1)
	c.sent.Add(int64(len(prompts)))
	c.wait()
	if bl, ok := c.inner.(judge.BatchLLM); ok {
		return bl.CompleteBatch(ctx, prompts)
	}
	out := make([]string, len(prompts))
	for i, p := range prompts {
		out[i] = c.inner.Complete(p)
	}
	return out, nil
}

func (c *countingLLM) wait() {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if c.gate != nil {
		<-c.gate
	}
}

// echoLLM answers deterministically without the simulated model's
// weight — keeps the concurrency tests fast.
type echoLLM struct{}

func (echoLLM) Complete(prompt string) string { return "echo:" + prompt }
func (echoLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	out := make([]string, len(prompts))
	for i, p := range prompts {
		out[i] = "echo:" + p
	}
	return out, nil
}

func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *remote.Backend) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	rb := remote.New(ts.URL, remote.WithBackoff(time.Millisecond))
	return srv, ts, rb
}

// TestRoundTripParity: completions fetched through the daemon are
// byte-identical to asking the in-process endpoint directly, on both
// the single and the batch path.
func TestRoundTripParity(t *testing.T) {
	const seed = 33
	m := model.New(seed)
	_, _, rb := startServer(t, server.Config{LLM: model.New(seed), Backend: "deepseek-sim", Seed: seed})

	prompts := make([]string, 12)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("Review the following OpenACC code ... Here is the code:\nint main() { return %d; }\n", i)
	}
	for _, p := range prompts {
		got, err := rb.CompleteContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Complete(p); got != want {
			t.Fatalf("remote response diverged from in-process:\nremote: %q\nlocal:  %q", got, want)
		}
	}
	got, err := rb.CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prompts {
		if want := m.Complete(p); got[i] != want {
			t.Fatalf("batch response %d diverged from in-process", i)
		}
	}
}

// TestMicroBatcherCoalesces: 32 concurrent single-prompt clients cost
// fewer endpoint calls than requests — the coalescing the daemon
// exists for — and every client still gets the exact per-prompt
// response.
func TestMicroBatcherCoalesces(t *testing.T) {
	const clients = 32
	counter := &countingLLM{inner: echoLLM{}, delay: time.Millisecond}
	srv, _, rb := startServer(t, server.Config{
		LLM:          counter,
		BatchMaxSize: 16,
	})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("prompt-%02d", i)
			resp, err := rb.CompleteContext(context.Background(), p)
			if err != nil {
				errs <- err
				return
			}
			if resp != "echo:"+p {
				errs <- fmt.Errorf("prompt %d got wrong response %q", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	calls := counter.calls.Load()
	if calls >= clients {
		t.Errorf("micro-batcher coalesced nothing: %d endpoint calls for %d requests", calls, clients)
	}
	st := srv.Stats()
	if st.Requests != clients {
		t.Errorf("stats counted %d requests, want %d", st.Requests, clients)
	}
	if st.Coalesced == 0 {
		t.Error("stats report zero coalesced batches under 32 concurrent clients")
	}
	if st.EndpointPrompts != clients {
		t.Errorf("endpoint received %d prompts, want %d", st.EndpointPrompts, clients)
	}
}

// TestOverload429: past QueueLimit the daemon refuses immediately
// with 429 and a Retry-After hint instead of queueing without bound.
func TestOverload429(t *testing.T) {
	gate := make(chan struct{})
	counter := &countingLLM{inner: echoLLM{}, gate: gate}
	srv, ts, _ := startServer(t, server.Config{
		LLM:          counter,
		BatchMaxSize: 1,
		QueueLimit:   2,
		RetryAfter:   100 * time.Millisecond,
	})

	// Fill the daemon to its limit, then one more.
	const flood = 8
	statuses := make(chan int, flood)
	retryAfter := make(chan string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/complete", "application/json",
				strings.NewReader(fmt.Sprintf(`{"prompt":"p%d"}`, i)))
			if err != nil {
				statuses <- -1
				return
			}
			defer resp.Body.Close()
			statuses <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
		}(i)
	}
	// Give the flood time to land while the endpoint is gated shut,
	// then release it so admitted requests finish.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(statuses)
	close(retryAfter)

	var ok, rejected int
	for s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d", s)
		}
	}
	if rejected == 0 {
		t.Fatalf("no 429s: %d requests all admitted past QueueLimit=2", flood)
	}
	if ok == 0 {
		t.Fatal("every request rejected; admitted ones should have completed")
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Error("429 response missing Retry-After header")
		}
	}
	if srv.Stats().Rejected != int64(rejected) {
		t.Errorf("stats counted %d rejections, observed %d", srv.Stats().Rejected, rejected)
	}
}

// TestOversizedBatch413: a shard that can never fit the queue limit
// is a permanent 413 (which the client does not retry), not an
// endlessly retryable 429.
func TestOversizedBatch413(t *testing.T) {
	_, ts, rb := startServer(t, server.Config{LLM: echoLLM{}, QueueLimit: 4})
	prompts := make([]string, 5)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("p%d", i)
	}
	resp, err := http.Post(ts.URL+"/v1/complete_batch", "application/json",
		strings.NewReader(`{"prompts":["a","b","c","d","e"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch got %d, want 413", resp.StatusCode)
	}
	// The client surfaces it as a permanent error, quickly.
	start := time.Now()
	if _, err := rb.CompleteBatch(context.Background(), prompts); err == nil {
		t.Fatal("client accepted an oversized batch")
	} else if !strings.Contains(err.Error(), "queue limit") {
		t.Errorf("error does not explain the limit: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("client retried a permanent 413 for %v", elapsed)
	}
	// A batch that exactly fits is admitted.
	if _, err := rb.CompleteBatch(context.Background(), prompts[:4]); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlinePropagation: a client deadline ends its request
// promptly even while the endpoint is stuck.
func TestDeadlinePropagation(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	counter := &countingLLM{inner: echoLLM{}, gate: gate}
	_, _, rb := startServer(t, server.Config{LLM: counter})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rb.CompleteContext(ctx, "stuck")
	if err == nil {
		t.Fatal("expected a deadline error against a stuck endpoint")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to propagate", elapsed)
	}
}

// TestAbandonedPromptHoldsSlot pins DESIGN.md §8's slot invariant: a
// /v1/complete whose requester gives up answers 504, but its
// admission slot stays taken until the abandoned prompt actually
// resolves — a second request meanwhile is shed with 429, and is
// admitted once the endpoint lets the abandoned prompt through.
func TestAbandonedPromptHoldsSlot(t *testing.T) {
	gate := make(chan struct{})
	counter := &countingLLM{inner: echoLLM{}, gate: gate}
	srv := server.New(server.Config{LLM: counter, QueueLimit: 1})
	defer srv.Close()
	h := srv.Handler()
	post := func(ctx context.Context, prompt string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/complete", strings.NewReader(`{"prompt":"`+prompt+`"}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	// The requester gives up only once its prompt is stuck in the
	// endpoint, so the slot is provably held by a flushing prompt.
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan int, 1)
	go func() { abandoned <- post(ctx, "abandoned") }()
	for counter.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if code := <-abandoned; code != http.StatusGatewayTimeout {
		t.Fatalf("abandoned request got %d, want 504", code)
	}
	if code := post(context.Background(), "second"); code != http.StatusTooManyRequests {
		t.Fatalf("request while the abandoned prompt is unflushed got %d, want 429", code)
	}

	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		code := post(context.Background(), "third")
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("request after the gate opened got %d, want 200", code)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreDedupAcrossRestart: with a run store mounted, a prompt
// completed once never reaches the endpoint again — not from another
// worker, and not after the daemon restarts on the same store.
func TestStoreDedupAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingLLM{inner: echoLLM{}}
	cfg := server.Config{LLM: counter, Backend: "echo", Seed: 7, Store: st}
	_, _, rb := startServer(t, cfg)

	prompts := []string{"alpha", "beta", "alpha", "gamma", "beta"}
	first, err := rb.CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.sent.Load(); got != 3 {
		t.Errorf("endpoint saw %d prompts for 3 unique of 5, intra-shard dedup failed", got)
	}
	again, err := rb.CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.sent.Load(); got != 3 {
		t.Errorf("endpoint saw %d prompts after a fully-deduped rerun, want 3", got)
	}
	for i := range prompts {
		if first[i] != again[i] {
			t.Fatalf("dedup changed response %d: %q vs %q", i, first[i], again[i])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh server, fresh store handle, same file.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	counter2 := &countingLLM{inner: echoLLM{}}
	cfg2 := server.Config{LLM: counter2, Backend: "echo", Seed: 7, Store: st2}
	_, _, rb2 := startServer(t, cfg2)
	after, err := rb2.CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter2.sent.Load(); got != 0 {
		t.Errorf("restarted daemon re-asked the endpoint %d prompts; store should have answered all", got)
	}
	for i := range prompts {
		if first[i] != after[i] {
			t.Fatalf("restart changed response %d", i)
		}
	}

	// A different seed must not share records.
	st3, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	counter3 := &countingLLM{inner: echoLLM{}}
	_, _, rb3 := startServer(t, server.Config{LLM: counter3, Backend: "echo", Seed: 8, Store: st3})
	if _, err := rb3.CompleteBatch(context.Background(), prompts[:2]); err != nil {
		t.Fatal(err)
	}
	if got := counter3.sent.Load(); got != 2 {
		t.Errorf("seed-8 daemon reused seed-7 records (%d prompts reached endpoint, want 2)", got)
	}
}

// TestBackendsAndHealthz: the discovery endpoints report the serving
// configuration and live stats.
func TestBackendsAndHealthz(t *testing.T) {
	srv, ts, rb := startServer(t, server.Config{
		LLM: echoLLM{}, Backend: "echo", Seed: 99,
		Registered: []string{"deepseek-sim", "echo"},
	})
	if err := rb.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/backends: %s", resp.Status)
	}
	if _, err := rb.CompleteContext(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Requests != 1 || st.EndpointCalls != 1 {
		t.Errorf("stats after one request: %+v", st)
	}
}

// TestReplicaIDInWire: the -replica-id satellite — the stable instance
// name configured on the daemon comes back in /healthz and
// /v1/backends, so router logs and failover tests can name replicas.
func TestReplicaIDInWire(t *testing.T) {
	_, ts, rb := startServer(t, server.Config{
		LLM: echoLLM{}, Backend: "echo", Seed: 7, ReplicaID: "replica-a",
	})
	info, err := rb.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplicaID != "replica-a" {
		t.Errorf("/v1/backends replica_id = %q, want replica-a", info.ReplicaID)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.ReplicaID != "replica-a" {
		t.Errorf("/healthz replica_id = %q, want replica-a", health.ReplicaID)
	}
}

// TestMetricsExposition: /metrics serves Prometheus text with the
// serving counters and the per-stage latency summaries, labelled by
// replica.
func TestMetricsExposition(t *testing.T) {
	_, ts, rb := startServer(t, server.Config{
		LLM: echoLLM{}, Backend: "echo", Seed: 7, ReplicaID: "replica-m",
	})
	if _, err := rb.CompleteContext(context.Background(), "warm"); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.CompleteBatch(context.Background(), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q, want text/plain exposition", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		`llm4vv_requests_total{replica="replica-m"} 1`,
		`llm4vv_batch_requests_total{replica="replica-m"} 1`,
		`llm4vv_endpoint_prompts_total{replica="replica-m"} 3`,
		`llm4vv_stage_seconds{replica="replica-m",stage="resolve",quantile="0.5"}`,
		`llm4vv_stage_seconds{replica="replica-m",stage="endpoint",quantile="0.99"}`,
		`llm4vv_stage_seconds_count{replica="replica-m",stage="resolve"} 2`,
		"# TYPE llm4vv_stage_seconds summary",
		"# TYPE llm4vv_gather_delay_seconds gauge",
		// The resilience families must be present even with no fault
		// injector, no remote client, and no breakers — zero-valued.
		`llm4vv_resilience_faults_injected_total{replica="replica-m"} 0`,
		`llm4vv_resilience_retries_total{replica="replica-m"} 0`,
		`llm4vv_resilience_breaker_state{replica="replica-m"} 0`,
		"# TYPE llm4vv_resilience_breaker_state gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsReportMergeFailure: a failed background merge of the
// daemon's store flips llm4vv_store_merge_failing to 1 — the failure
// lives only in the process that ran the merge, so /metrics is where
// an operator can see it.
func TestMetricsReportMergeFailure(t *testing.T) {
	// Two seals publish; the third rename — the merge's — fails.
	var renames atomic.Int32
	hook := func(op string) error {
		if op == "rename" && renames.Add(1) > 2 {
			return fmt.Errorf("injected %s failure", op)
		}
		return nil
	}
	st, err := store.OpenWith(filepath.Join(t.TempDir(), "serve.jsonl"),
		store.Options{SealBytes: 1, MergeThreshold: 2, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts, _ := startServer(t, server.Config{LLM: echoLLM{}, Backend: "echo", Seed: 7, Store: st, ReplicaID: "replica-f"})
	metric := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	const healthy, failing = `llm4vv_store_merge_failing{replica="replica-f"} 0`, `llm4vv_store_merge_failing{replica="replica-f"} 1`
	if body := metric(); !strings.Contains(body, healthy) {
		t.Fatalf("/metrics missing %q before any merge:\n%s", healthy, body)
	}
	for i := 0; i < 2; i++ {
		if err := st.Put(store.Record{Experiment: "e", Backend: "echo", Seed: 7, FileHash: fmt.Sprintf("h%d", i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().MergeErr == "" {
		if time.Now().After(deadline) {
			t.Fatal("background merge never failed")
		}
		time.Sleep(time.Millisecond)
	}
	if body := metric(); !strings.Contains(body, failing) {
		t.Fatalf("/metrics missing %q after a failed merge:\n%s", failing, body)
	}
}

// TestEmptyAndMalformedRequests: protocol errors are 4xx, not 5xx or
// hangs.
func TestEmptyAndMalformedRequests(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{LLM: echoLLM{}})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/complete", `{"prompt":""}`, http.StatusBadRequest},
		{"/v1/complete", `{garbage`, http.StatusBadRequest},
		{"/v1/complete_batch", `{"prompts":[]}`, http.StatusOK},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %q: got %d want %d", c.path, c.body, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/complete")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/complete: got %d want 405", resp.StatusCode)
	}
}

// TestLoneSingleNeverWaits: with nothing in flight a single prompt
// dispatches at once — its own endpoint call, no coalescing, and a
// zero gather wait — however many arrive one after another.
func TestLoneSingleNeverWaits(t *testing.T) {
	counter := &countingLLM{inner: echoLLM{}}
	srv, _, rb := startServer(t, server.Config{LLM: counter})
	for i := 1; i <= 8; i++ {
		if _, err := rb.CompleteContext(context.Background(), fmt.Sprintf("lone-%d", i)); err != nil {
			t.Fatal(err)
		}
		if got := counter.calls.Load(); got != int64(i) {
			t.Fatalf("after %d sequential singles the endpoint saw %d calls", i, got)
		}
		if got := srv.GatherDelay(); got != 0 {
			t.Fatalf("single %d waited %v with no flush in flight, want 0", i, got)
		}
	}
	if st := srv.Stats(); st.Coalesced != 0 || st.GatherDelayNS != 0 {
		t.Fatalf("sequential singles: coalesced %d, gather_delay_ns %d; want 0, 0", st.Coalesced, st.GatherDelayNS)
	}
}

// TestSinglesDuringFlushCoalesce: singles that arrive while a flush
// is in flight — spaced far wider than any fixed straggler timer —
// gather into one batch that reaches the endpoint as a single call
// once that flush ends.
func TestSinglesDuringFlushCoalesce(t *testing.T) {
	const n, spacing = 4, 10 * time.Millisecond
	counter := &countingLLM{inner: echoLLM{}, delay: 200 * time.Millisecond}
	srv, _, rb := startServer(t, server.Config{LLM: counter, BatchMaxSize: n})
	// The warm call gives the batcher a measured flush time, so the
	// gather below runs under its bound, not the cold-start rule.
	if _, err := rb.CompleteContext(context.Background(), "warm"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	call := func(prompt string) {
		defer wg.Done()
		if resp, err := rb.CompleteContext(context.Background(), prompt); err != nil {
			t.Error(err)
		} else if resp != "echo:"+prompt {
			t.Errorf("%s got %q", prompt, resp)
		}
	}
	wg.Add(1)
	go call("running")
	for counter.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go call(fmt.Sprintf("during-%d", i))
		time.Sleep(spacing)
	}
	wg.Wait()
	if calls, sent := counter.calls.Load(), counter.sent.Load(); calls != 3 || sent != n+2 {
		t.Fatalf("endpoint saw %d calls with %d prompts, want 3 calls (warm, running, one batch of %d) with %d", calls, sent, n, n+2)
	}
	if st := srv.Stats(); st.Coalesced != 1 || st.GatherDelayNS == 0 {
		t.Fatalf("coalesced %d, gather_delay_ns %d; want 1 batch that waited on the running flush", st.Coalesced, st.GatherDelayNS)
	}
}

// holdLLM echoes, except that any call carrying the prompt "hold"
// signals held and then blocks until release closes.
type holdLLM struct{ held, release chan struct{} }

func (h holdLLM) Complete(prompt string) string {
	r, _ := h.CompleteBatch(context.Background(), []string{prompt})
	return r[0]
}

func (h holdLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	for _, p := range prompts {
		if p == "hold" {
			close(h.held)
			<-h.release
		}
	}
	return echoLLM{}.CompleteBatch(ctx, prompts)
}

// TestHungFlushDoesNotHoldSingles: once a flush has completed, the
// batcher bounds its wait on an in-flight flush by the last measured
// flush time, so one endpoint call that never returns cannot stall
// later prompts.
func TestHungFlushDoesNotHoldSingles(t *testing.T) {
	llm := holdLLM{held: make(chan struct{}), release: make(chan struct{})}
	_, _, rb := startServer(t, server.Config{LLM: llm})
	// Registered after startServer, so it runs first: a failure must
	// not leave Close waiting on the held flush.
	release := sync.OnceFunc(func() { close(llm.release) })
	t.Cleanup(release)
	if _, err := rb.CompleteContext(context.Background(), "warm"); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := rb.CompleteContext(context.Background(), "hold")
		held <- err
	}()
	<-llm.held
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if resp, err := rb.CompleteContext(ctx, "later"); err != nil || resp != "echo:later" {
		t.Fatalf("single behind a held flush: %q, %v", resp, err)
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

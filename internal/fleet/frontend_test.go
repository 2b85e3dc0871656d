package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/server"
)

func startFrontend(t *testing.T, cfg FrontendConfig, fakes ...*fakeReplica) (*Frontend, *httptest.Server) {
	t.Helper()
	if cfg.Router == nil {
		cfg.Router = testRouter(t, fakes...)
	}
	f := NewFrontend(cfg)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

func postJSON(t *testing.T, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestFrontendWireParity: the router daemon speaks the replica wire
// protocol — the stock remote client completes singles and batches
// through it without knowing it is a fleet.
func TestFrontendWireParity(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	_, ts := startFrontend(t, FrontendConfig{ID: "r1"}, a, b)
	be := remote.New(ts.URL, remote.WithRetries(0))
	resp, err := be.CompleteContext(t.Context(), "hello")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(resp, ":hello") {
		t.Fatalf("unexpected response %q", resp)
	}
	prompts := []string{"p0", "p1", "p2", "p3"}
	resps, err := be.CompleteBatch(t.Context(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if !strings.HasSuffix(r, ":"+prompts[i]) {
			t.Fatalf("batch response %d = %q for prompt %q", i, r, prompts[i])
		}
	}
	if err := be.Ping(t.Context()); err != nil {
		t.Fatalf("Ping through router: %v", err)
	}
}

// TestFrontendBulkShedsFirst: with slots held, a bulk request is shed
// (429 + fractional Retry-After) while an interactive request at the
// same instant is still admitted — bulk's ceiling is lower.
func TestFrontendBulkShedsFirst(t *testing.T) {
	a := newFakeReplica("a")
	a.gate = make(chan struct{})
	f, ts := startFrontend(t, FrontendConfig{ID: "r1", QueueLimit: 2, BulkLimit: 1, RetryAfter: 250 * time.Millisecond}, a)

	var wg sync.WaitGroup
	release := func() { close(a.gate); wg.Wait() }
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "held"}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held request status %d", resp.StatusCode)
		}
	}()
	// Wait until the held request occupies its slot.
	for f.policy.inflight.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	// Bulk: 1 held + 1 = 2 > BulkLimit 1 → shed.
	resp, body := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "bulk"},
		map[string]string{remote.PriorityHeader: remote.PriorityBulk})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk request status %d, want 429 (%s)", resp.StatusCode, body)
	}
	ra, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil || ra != 0.25 {
		t.Fatalf("Retry-After = %q, want 0.25", resp.Header.Get("Retry-After"))
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "bulk") {
		t.Fatalf("shed body %s", body)
	}

	// Interactive at the same load: 2 <= QueueLimit 2 → admitted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "vip"}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("interactive status %d under load", resp.StatusCode)
		}
	}()
	for f.policy.inflight.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	release()

	st := f.Stats()
	if st.ShedBulk != 1 || st.ShedInteractive != 0 {
		t.Fatalf("shed counters %+v; want bulk=1 interactive=0", st)
	}
	if st.AdmittedInteractive != 2 {
		t.Fatalf("admitted interactive = %d, want 2", st.AdmittedInteractive)
	}
	if f.policy.inflight.Load() != 0 {
		t.Fatalf("inflight %d after release, want 0", f.policy.inflight.Load())
	}
}

// TestFrontendBatchDefaultsToBulk: an unlabelled batch request is
// bulk-classed (the sweep path), while the explicit interactive header
// overrides.
func TestFrontendBatchDefaultsToBulk(t *testing.T) {
	a := newFakeReplica("a")
	f, ts := startFrontend(t, FrontendConfig{ID: "r1"}, a)
	resp, _ := postJSON(t, ts.URL+"/v1/complete_batch", server.CompleteBatchRequest{Prompts: []string{"x", "y"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if st := f.Stats(); st.AdmittedBulk != 2 || st.AdmittedInteractive != 0 {
		t.Fatalf("unlabelled batch classed %+v; want bulk", st)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/complete_batch", server.CompleteBatchRequest{Prompts: []string{"z"}},
		map[string]string{remote.PriorityHeader: remote.PriorityInteractive})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if st := f.Stats(); st.AdmittedInteractive != 1 {
		t.Fatalf("interactive header ignored: %+v", st)
	}
}

// TestFrontendClientQuota: one client's in-flight prompts are capped;
// other clients are unaffected.
func TestFrontendClientQuota(t *testing.T) {
	a := newFakeReplica("a")
	a.gate = make(chan struct{})
	f, ts := startFrontend(t, FrontendConfig{ID: "r1", ClientQuota: 1}, a)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "held"},
			map[string]string{remote.ClientHeader: "greedy"})
	}()
	for f.policy.inflight.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "again"},
		map[string]string{remote.ClientHeader: "greedy"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quota") {
		t.Fatalf("quota body %s", body)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "other"},
			map[string]string{remote.ClientHeader: "modest"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("other client status %d", resp.StatusCode)
		}
	}()
	for f.policy.inflight.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	close(a.gate)
	wg.Wait()

	if st := f.Stats(); st.QuotaRejected != 1 {
		t.Fatalf("QuotaRejected = %d, want 1", st.QuotaRejected)
	}
	f.policy.mu.Lock()
	n := len(f.policy.clients)
	f.policy.mu.Unlock()
	if n != 0 {
		t.Fatalf("client table holds %d entries after drain, want 0", n)
	}
}

// TestFrontendHealthz: healthy while any replica lives, 503 when the
// whole fleet is down.
func TestFrontendHealthz(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	f, ts := startFrontend(t, FrontendConfig{ID: "r1"}, a, b)
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.RouterID != "r1" || len(h.Replicas) != 2 {
		t.Fatalf("healthz body %+v", h)
	}
	a.dead.Store(true)
	b.dead.Store(true)
	f.cfg.Router.CheckNow()
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d with fleet down, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &h); err != nil || h.OK {
		t.Fatalf("healthz body with fleet down: %s", body)
	}
}

// TestFrontendBackends: with clients that cannot describe a backend,
// /v1/backends still reports the fleet shape.
func TestFrontendBackends(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	_, ts := startFrontend(t, FrontendConfig{ID: "r1"}, a, b)
	resp, body := getBody(t, ts.URL+"/v1/backends")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backends status %d", resp.StatusCode)
	}
	var info server.BackendsResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ReplicaID != "r1" || !info.Batch || len(info.Replicas) != 2 {
		t.Fatalf("backends body %+v", info)
	}
	if !strings.HasPrefix(info.Serving, "fleet:") {
		t.Fatalf("Serving = %q", info.Serving)
	}
}

// TestFrontendMetrics: the exposition carries the routing and
// admission counters under the router and replica labels.
func TestFrontendMetrics(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	f, ts := startFrontend(t, FrontendConfig{ID: "r-m"}, a, b)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: fmt.Sprintf("m-%d", i)}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("complete status %d", resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/complete_batch", server.CompleteBatchRequest{Prompts: []string{"mb-0", "mb-1"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`llm4vv_router_requests_total{router="r-m"} 3`,
		`llm4vv_router_batch_requests_total{router="r-m"} 1`,
		`llm4vv_router_routed_prompts_total{router="r-m"} 5`,
		`llm4vv_router_admitted_total{router="r-m",priority="interactive"} 3`,
		`llm4vv_router_admitted_total{router="r-m",priority="bulk"} 2`,
		`llm4vv_router_replica_healthy{router="r-m",replica="a"} 1`,
		`llm4vv_router_replica_healthy{router="r-m",replica="b"} 1`,
		`llm4vv_router_stage_seconds_count{router="r-m",stage="route"} 3`,
		`llm4vv_router_stage_seconds_count{router="r-m",stage="route_batch"} 1`,
		`# TYPE llm4vv_router_shed_total counter`,
		`# TYPE llm4vv_router_inflight_prompts gauge`,
		// The resilience families ride the router exposition too: no
		// injector and no retries means zero-valued series, and the
		// breaker gauge carries one closed (0) series per replica.
		`llm4vv_resilience_faults_injected_total{router="r-m"} 0`,
		`llm4vv_resilience_retries_total{router="r-m"} 0`,
		`llm4vv_resilience_breaker_state{router="r-m",target="a"} 0`,
		`llm4vv_resilience_breaker_state{router="r-m",target="b"} 0`,
		`# TYPE llm4vv_resilience_breaker_state gauge`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	_ = f
}

// TestFrontendBatchAboveCeiling413: a batch above its class ceiling,
// or above its client's quota, can never be admitted, so it gets the
// permanent 413 naming the limit and the fix — the stock client fails
// at once instead of retrying a 429 until it gives up.
func TestFrontendBatchAboveCeiling413(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FrontendConfig
		n    int
		want string
	}{
		{"bulk ceiling", FrontendConfig{ID: "r1", QueueLimit: 8}, 5, "router bulk queue limit 4; lower the client shard size or raise -bulk-queue"},
		{"client quota", FrontendConfig{ID: "r1", ClientQuota: 2}, 3, "router client quota 2; lower the client shard size or raise -client-quota"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := startFrontend(t, tc.cfg, newFakeReplica("a"))
			prompts := make([]string, tc.n)
			for i := range prompts {
				prompts[i] = fmt.Sprintf("p%d", i)
			}
			resp, body := postJSON(t, ts.URL+"/v1/complete_batch", server.CompleteBatchRequest{Prompts: prompts}, nil)
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), tc.want) {
				t.Fatalf("status %d body %s; want 413 naming %q", resp.StatusCode, body, tc.want)
			}
			be := remote.New(ts.URL)
			start := time.Now()
			if _, err := be.CompleteBatch(t.Context(), prompts); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("client error %v; want the 413 naming %q", err, tc.want)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("client took %v on a permanent 413", elapsed)
			}
			if r := be.Retries(); r != 0 {
				t.Fatalf("client retried a permanent 413 %d times", r)
			}
		})
	}
}

// TestFrontendBadRequests: malformed bodies, empty prompts, and wrong
// methods answer with the daemon's error wire format.
func TestFrontendBadRequests(t *testing.T) {
	a := newFakeReplica("a")
	_, ts := startFrontend(t, FrontendConfig{ID: "r1", QueueLimit: 4}, a)
	resp, err := http.Get(ts.URL + "/v1/complete")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET complete status %d", resp.StatusCode)
	}
	r2, _ := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{}, nil)
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty prompt status %d", r2.StatusCode)
	}
	r3, _ := postJSON(t, ts.URL+"/v1/complete_batch", server.CompleteBatchRequest{Prompts: make([]string, 5)}, nil)
	if r3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d", r3.StatusCode)
	}
	r4, _ := postJSON(t, ts.URL+"/v1/complete_batch", server.CompleteBatchRequest{}, nil)
	if r4.StatusCode != http.StatusOK {
		t.Fatalf("empty batch status %d", r4.StatusCode)
	}
}

// TestFrontendGatewayErrors: a fleet-wide failure surfaces as 502,
// which the remote client treats as transient.
func TestFrontendGatewayErrors(t *testing.T) {
	a := newFakeReplica("a")
	a.dead.Store(true)
	_, ts := startFrontend(t, FrontendConfig{ID: "r1"}, a)
	resp, body := postJSON(t, ts.URL+"/v1/complete", server.CompleteRequest{Prompt: "x"}, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d with fleet down, want 502 (%s)", resp.StatusCode, body)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

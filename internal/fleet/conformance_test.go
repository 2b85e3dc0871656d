package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// gatedLLM blocks every completion until gate closes, counting the
// calls that reached it.
type gatedLLM struct {
	gate    chan struct{}
	entered atomic.Int64
}

func (g *gatedLLM) Complete(prompt string) string {
	g.entered.Add(1)
	<-g.gate
	return "gated:" + prompt
}

// face is one serving process under the conformance test: its URL,
// a probe reporting when a held request occupies the only slot, and
// the release that lets the held request finish.
type face struct {
	url  string
	held func() bool
	open func()
}

// TestWireConformance: the daemon and the router answer the wire
// protocol's edge cases identically — the statuses, the JSON
// ErrorResponse bodies and Content-Type headers, the empty-batch
// body, the permanent 413 for a batch above the admission ceiling, a
// 429 carrying a fractional Retry-After, and an empty /debug/traces
// array without a tracer. Both run with room for exactly one prompt.
func TestWireConformance(t *testing.T) {
	faces := map[string]func(t *testing.T) face{
		"daemon": func(t *testing.T) face {
			llm := &gatedLLM{gate: make(chan struct{})}
			srv := server.New(server.Config{LLM: llm, QueueLimit: 1, RetryAfter: 250 * time.Millisecond})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				ts.Close()
				srv.Close()
			})
			return face{url: ts.URL, held: func() bool { return llm.entered.Load() == 1 }, open: func() { close(llm.gate) }}
		},
		"router": func(t *testing.T) face {
			a := newFakeReplica("a")
			a.gate = make(chan struct{})
			f, ts := startFrontend(t, FrontendConfig{ID: "r1", QueueLimit: 1, BulkLimit: 1, RetryAfter: 250 * time.Millisecond}, a)
			return face{url: ts.URL, held: func() bool { return f.policy.inflight.Load() == 1 }, open: func() { close(a.gate) }}
		},
	}
	for name, start := range faces {
		t.Run(name, func(t *testing.T) {
			fc := start(t)
			wantError := func(what string, resp *http.Response, body []byte, status int) {
				t.Helper()
				if resp.StatusCode != status {
					t.Fatalf("%s: status %d, want %d (%s)", what, resp.StatusCode, status, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s: Content-Type %q", what, ct)
				}
				var e server.ErrorResponse
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Fatalf("%s: body %s is not an ErrorResponse", what, body)
				}
			}

			resp, body := getBody(t, fc.url+"/v1/complete")
			wantError("GET /v1/complete", resp, body, http.StatusMethodNotAllowed)
			resp, body = send(t, fc.url+"/v1/complete", `{garbage`)
			wantError("malformed body", resp, body, http.StatusBadRequest)
			resp, body = send(t, fc.url+"/v1/complete", `{"prompt":""}`)
			wantError("empty prompt", resp, body, http.StatusBadRequest)
			resp, body = send(t, fc.url+"/v1/complete_batch", `{"prompts":["a","b"]}`)
			wantError("oversized batch", resp, body, http.StatusRequestEntityTooLarge)

			resp, body = send(t, fc.url+"/v1/complete_batch", `{"prompts":[]}`)
			if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"responses":[]}` {
				t.Fatalf("empty batch: status %d body %s", resp.StatusCode, body)
			}

			resp, body = getBody(t, fc.url+"/debug/traces")
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" ||
				strings.TrimSpace(string(body)) != "[]" {
				t.Fatalf("/debug/traces: status %d type %q body %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
			}

			// Hold the only slot, then overflow it.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(fc.url+"/v1/complete", "application/json", strings.NewReader(`{"prompt":"held"}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("held request: status %d", resp.StatusCode)
				}
			}()
			defer func() {
				fc.open()
				wg.Wait()
			}()
			for !fc.held() {
				time.Sleep(time.Millisecond)
			}
			resp, body = send(t, fc.url+"/v1/complete", `{"prompt":"overflow"}`)
			wantError("overflow", resp, body, http.StatusTooManyRequests)
			if ra, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); err != nil || ra != 0.25 {
				t.Fatalf("429 Retry-After = %q, want 0.25", resp.Header.Get("Retry-After"))
			}
		})
	}
}

// send POSTs a raw JSON body.
func send(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

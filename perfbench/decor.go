package main

// Decorators on interfaces the program already accepts: judge.LLM
// endpoints (registered through llm4vv.RegisterBackend or handed to a
// server or panel), http.RoundTripper (through remote.WithHTTPClient
// and the generator's own client), and http.Handler (around the daemon
// and router route tables). Each times calls into one layer; with a
// nil recorder they only keep the latency samples the end-to-end
// metrics need.

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/judge"
)

// samples is a concurrency-safe list of latencies in milliseconds.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/1e6)
	s.mu.Unlock()
}

// take returns the samples gathered so far and starts a new list.
func (s *samples) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ms
	s.ms = nil
	return out
}

// timedLLM decorates an endpoint. It keeps the batch and context
// capabilities callers detect (judge.BatchLLM, judge.ContextLLM), so
// the pipeline, the daemon and the panel treat it exactly as the
// endpoint it wraps.
type timedLLM struct {
	inner judge.LLM
	rec   *recorder // nil: no spans
	layer string
	host  string
	lat   *samples // nil: no latency samples
	// counts, when set, counts calls and the prompts they carried.
	counts *callCounts
}

// callCounts counts an endpoint's calls and prompts.
type callCounts struct {
	calls, prompts atomic.Int64
}

func (t *timedLLM) call(ctx context.Context, n int, fn func(ctx context.Context) error) error {
	if t.counts != nil {
		t.counts.calls.Add(1)
		t.counts.prompts.Add(int64(n))
	}
	start := time.Now()
	var id, at int64
	parent := parentOf(ctx)
	if t.rec != nil {
		id, at, ctx = t.rec.open(ctx)
	}
	err := fn(ctx)
	if t.rec != nil {
		t.rec.add(span{id: id, parent: parent, layer: t.layer, host: t.host, start: at, end: t.rec.now(), n: n})
	}
	if t.lat != nil {
		t.lat.add(time.Since(start))
	}
	return err
}

func (t *timedLLM) Complete(prompt string) string {
	resp, _ := t.CompleteContext(context.Background(), prompt)
	return resp
}

func (t *timedLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	var resp string
	err := t.call(ctx, 1, func(ctx context.Context) error {
		if cl, ok := t.inner.(judge.ContextLLM); ok {
			r, err := cl.CompleteContext(ctx, prompt)
			resp = r
			return err
		}
		resp = t.inner.Complete(prompt)
		return nil
	})
	return resp, err
}

func (t *timedLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	var resps []string
	err := t.call(ctx, len(prompts), func(ctx context.Context) error {
		r, err := judge.CompleteAll(ctx, t.inner, prompts)
		resps = r
		return err
	})
	return resps, err
}

// timedTransport times HTTP calls on one hop. The span runs from the
// request until its body is closed, and the span id travels in
// spanHeader so the handler wrapper on the far side names it parent.
type timedTransport struct {
	base  http.RoundTripper
	rec   *recorder
	layer string
	host  string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := parentOf(req.Context())
	id, at, _ := t.rec.open(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, formatID(id))
	done := func() {
		t.rec.add(span{id: id, parent: parent, layer: t.layer, host: t.host, start: at, end: t.rec.now(), n: 1})
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedHandler times the completion routes of a daemon or router; the
// scrape and health routes pass through untimed.
func timedHandler(h http.Handler, rec *recorder, layer, host string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/complete") {
			h.ServeHTTP(w, r)
			return
		}
		parent := parseID(r.Header.Get(spanHeader))
		id, at, ctx := rec.open(r.Context())
		h.ServeHTTP(w, r.WithContext(ctx))
		rec.add(span{id: id, parent: parent, layer: layer, host: host, start: at, end: rec.now(), n: 1})
	})
}

// newTransport is a keep-alive transport sized like the program's own
// remote client transport, so the generator's connections behave like
// a worker's.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second}
}

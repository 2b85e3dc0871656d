// Package fault is the deterministic, seeded fault-injection
// subsystem behind the chaos test suite and the daemons' -fault flag.
//
// An Injector holds a parsed fault schedule: rules that name an
// injection point ("remote.send", "daemon.handler", "store.write",
// "fleet.probe", …), a fault kind, and a firing discipline — a
// probability, an every-Nth-operation cadence, or both bounded by a
// total fire count. Instrumented code asks At(point) before each
// operation; the decision is a pure function of the injector seed,
// the point name, and that point's operation index, so a chaos run
// under a given schedule injects exactly the same faults every time,
// regardless of wall clock or goroutine interleaving. (Under
// concurrency the set of faulted operation indexes is deterministic;
// which request draws which index may vary, which is exactly the
// nondeterminism the resilience layer must absorb.)
//
// A rule point matches an operation point exactly, or as a
// ':'-delimited prefix: the rule "fleet.probe" fires at
// "fleet.probe:127.0.0.1:8001" and every other replica's probes,
// while "fleet.probe:127.0.0.1:8001" flaps only that replica.
// Operation indexes are always counted per full point name.
//
// A nil *Injector is inert everywhere — At answers None, the
// wrapping helpers (Transport, Middleware, LLM, Hook) return their
// argument unchanged — so production call sites thread the injector
// unconditionally and pay nothing when chaos is off.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/judge"
	"repro/internal/rng"
)

// Kind enumerates the injectable fault kinds. Not every kind is
// meaningful at every point: the helper wrapping a tier documents
// which kinds it honours and ignores the rest.
type Kind uint8

const (
	None      Kind = iota
	Latency        // delay the operation by Param, then let it proceed
	Reset          // fail the operation like a connection reset
	HTTP500        // answer with a synthesized 500 without reaching the target
	Torn           // truncate the response body mid-JSON
	Hang           // block for Param (or until the request context ends)
	Malformed      // replace a judge completion with undecodable garbage
	Err            // fail the operation with a generic injected error
	Flap           // fail a health probe (the replica flaps)
)

var kindNames = map[Kind]string{
	None: "none", Latency: "latency", Reset: "reset", HTTP500: "500",
	Torn: "torn", Hang: "hang", Malformed: "malformed", Err: "err", Flap: "flap",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func kindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return k, true
		}
	}
	return None, false
}

// Rule is one schedule entry: fire Kind at operations matching Point,
// on the configured cadence.
type Rule struct {
	// Point names the injection point, exactly or as a ':'-delimited
	// prefix ("fleet.probe" matches "fleet.probe:<addr>").
	Point string
	Kind  Kind
	// Rate fires with this probability per operation (0 < Rate <= 1),
	// decided by hashing (seed, point, op index) — deterministic, not
	// sampled. Ignored when Every is set.
	Rate float64
	// Every fires on every Every-th operation at the point (the
	// Every-th, 2·Every-th, …). Every == 1 fires always. When both
	// Every and Rate are zero the rule fires on every operation.
	Every int
	// Count caps the rule's total fires; 0 means unlimited.
	Count int64
	// Param is the duration operand for Latency and Hang.
	Param time.Duration

	fired atomic.Int64
}

// Decision is the outcome of one At call.
type Decision struct {
	Kind  Kind
	Param time.Duration
}

// Injector decides fault injection for named points under one seed.
// Construct with New or Parse; the zero value and nil are inert.
type Injector struct {
	seed  uint64
	rules []*Rule

	mu     sync.Mutex
	ops    map[string]*atomic.Int64 // per-point operation index
	counts map[string]*atomic.Int64 // per-point injected-fault count
}

// New builds an injector from a seed and a rule set. Rules are
// consulted in order; the first that matches and fires wins.
func New(seed uint64, rules ...*Rule) *Injector {
	return &Injector{
		seed:   seed,
		rules:  rules,
		ops:    map[string]*atomic.Int64{},
		counts: map[string]*atomic.Int64{},
	}
}

// Seed reports the injector's schedule seed.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

func (in *Injector) counter(m map[string]*atomic.Int64, point string) *atomic.Int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	c, ok := m[point]
	if !ok {
		c = &atomic.Int64{}
		m[point] = c
	}
	return c
}

// matches reports whether a rule point covers an operation point:
// exact, or a prefix ending at a ':' boundary.
func matches(rulePoint, point string) bool {
	if rulePoint == point {
		return true
	}
	return strings.HasPrefix(point, rulePoint+":")
}

func pointHash(point string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, point)
	return h.Sum64()
}

// At advances the point's operation index and decides whether this
// operation draws a fault. Safe for concurrent use; a nil injector
// always answers None.
func (in *Injector) At(point string) Decision {
	if in == nil {
		return Decision{}
	}
	n := in.counter(in.ops, point).Add(1) // 1-based operation index
	for _, r := range in.rules {
		if r.Kind == None || !matches(r.Point, point) {
			continue
		}
		fire := false
		switch {
		case r.Every > 0:
			fire = n%int64(r.Every) == 0
		case r.Rate > 0:
			// rng.Mix: uniform output from structured (seed, point,
			// index) input.
			h := rng.Mix(in.seed ^ pointHash(point) ^ uint64(n))
			fire = float64(h>>11)/(1<<53) < r.Rate
		default:
			fire = true
		}
		if !fire {
			continue
		}
		if r.Count > 0 {
			// Respect the fire cap; a lost race here returns the slot.
			if fired := r.fired.Add(1); fired > r.Count {
				r.fired.Add(-1)
				continue
			}
		} else {
			r.fired.Add(1)
		}
		in.counter(in.counts, point).Add(1)
		return Decision{Kind: r.Kind, Param: r.Param}
	}
	return Decision{}
}

// PointCount is one injection point's injected-fault tally.
type PointCount struct {
	Point string
	Count int64
}

// Injected reports how many faults each point has drawn so far,
// sorted by point name for stable metrics exposition. Points that
// were consulted but never drew a fault are omitted.
func (in *Injector) Injected() []PointCount {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := make([]PointCount, 0, len(in.counts))
	for p, c := range in.counts {
		if n := c.Load(); n > 0 {
			out = append(out, PointCount{Point: p, Count: n})
		}
	}
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// InjectedTotal reports the total faults injected across all points.
func (in *Injector) InjectedTotal() int64 {
	var total int64
	for _, pc := range in.Injected() {
		total += pc.Count
	}
	return total
}

// Parse reads the -fault flag syntax: "<seed>:<schedule>" where the
// schedule is a comma-separated list of rules, each
//
//	point=kind[@freq][/dur][#count]
//
// freq is a probability for values in (0, 1) ("@0.05" fires 5% of
// operations) or an every-Nth cadence for integer values >= 1
// ("@3" fires every 3rd operation); absent, the rule fires on every
// operation. dur is a Go duration operand for latency/hang
// ("/200ms"). count caps total fires ("#1" fires at most once).
// Kinds: latency, reset, 500, torn, hang, malformed, err, flap.
//
// Example:
//
//	42:remote.send=500@0.05,remote.send=torn#1,fleet.probe=flap@2,store.write=err#1
func Parse(s string) (*Injector, error) {
	seedStr, schedule, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("fault: %q is not <seed>:<schedule>", s)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fault: bad seed %q: %v", seedStr, err)
	}
	var rules []*Rule
	for _, entry := range strings.Split(schedule, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, spec, ok := strings.Cut(entry, "=")
		if !ok || point == "" {
			return nil, fmt.Errorf("fault: rule %q is not point=kind[@freq][/dur][#count]", entry)
		}
		r := &Rule{Point: point}
		spec, countStr, hasCount := cutLast(spec, "#")
		if hasCount {
			r.Count, err = strconv.ParseInt(countStr, 10, 64)
			if err != nil || r.Count < 1 {
				return nil, fmt.Errorf("fault: rule %q: bad count %q", entry, countStr)
			}
		}
		spec, durStr, hasDur := cutLast(spec, "/")
		if hasDur {
			r.Param, err = time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad duration %q: %v", entry, durStr, err)
			}
		}
		spec, freqStr, hasFreq := cutLast(spec, "@")
		if hasFreq {
			f, ferr := strconv.ParseFloat(freqStr, 64)
			if ferr != nil || f <= 0 {
				return nil, fmt.Errorf("fault: rule %q: bad frequency %q", entry, freqStr)
			}
			if f < 1 {
				r.Rate = f
			} else if f == float64(int64(f)) {
				r.Every = int(f)
			} else {
				return nil, fmt.Errorf("fault: rule %q: frequency %q is neither a probability (<1) nor an integer cadence", entry, freqStr)
			}
		}
		kind, ok := kindFromString(spec)
		if !ok || kind == None {
			return nil, fmt.Errorf("fault: rule %q: unknown kind %q", entry, spec)
		}
		r.Kind = kind
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: schedule %q has no rules", s)
	}
	return New(seed, rules...), nil
}

// cutLast splits s at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// ErrInjected is the base of every error the helpers synthesize, so
// tests and logs can recognise injected failure by errors.Is.
var ErrInjected = errors.New("fault: injected failure")

func injectedErr(kind Kind, point string) error {
	return fmt.Errorf("%w: %s at %s", ErrInjected, kind, point)
}

// Transport wraps an http.RoundTripper with client-side fault
// injection at "<point>:<host>" per request. Honoured kinds: Latency
// (delay, then send), Reset (connection-reset-like error, request
// never sent), HTTP500 (synthesized 500 response, request never
// sent), Torn (real response with its body truncated mid-stream).
// A nil base means http.DefaultTransport; a nil injector returns
// base unchanged.
func Transport(in *Injector, point string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if in == nil {
		return base
	}
	return &faultTransport{in: in, point: point, base: base}
}

type faultTransport struct {
	in    *Injector
	point string
	base  http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.in.At(t.point + ":" + req.URL.Host)
	switch d.Kind {
	case Latency:
		timer := time.NewTimer(d.Param)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	case Reset:
		return nil, injectedErr(Reset, t.point)
	case HTTP500:
		body := `{"error":"fault: injected 500"}`
		return &http.Response{
			StatusCode:    http.StatusInternalServerError,
			Status:        "500 Internal Server Error",
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || d.Kind != Torn {
		return resp, err
	}
	// Torn: deliver a prefix of the real body, then cut the stream.
	// Half of a known Content-Length, else a small fixed prefix —
	// enough bytes that a JSON decoder starts parsing before the EOF.
	n := int64(16)
	if resp.ContentLength > 0 {
		n = resp.ContentLength / 2
	}
	resp.Body = &tornBody{inner: resp.Body, remaining: n}
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
	return resp, nil
}

// tornBody delivers at most remaining bytes of the wrapped body and
// then reports EOF, simulating a connection cut mid-response. Close
// still closes the real body so the connection is reclaimed.
type tornBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (b *tornBody) Close() error { return b.inner.Close() }

// Middleware wraps an HTTP handler with server-side fault injection
// at point per request. Honoured kinds: Latency (delay, then serve),
// Hang (block for Param, or until the request context ends when
// Param is zero, then serve nothing), HTTP500 (refuse with 500).
// A nil injector returns next unchanged.
func Middleware(in *Injector, point string, next http.Handler) http.Handler {
	if in == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := in.At(point)
		switch d.Kind {
		case Latency:
			timer := time.NewTimer(d.Param)
			select {
			case <-timer.C:
			case <-r.Context().Done():
				timer.Stop()
				return
			}
		case Hang:
			if d.Param <= 0 {
				<-r.Context().Done()
				return
			}
			timer := time.NewTimer(d.Param)
			select {
			case <-timer.C:
			case <-r.Context().Done():
				timer.Stop()
			}
			return
		case HTTP500:
			http.Error(w, `{"error":"fault: injected 500"}`, http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// MalformedCompletion is the garbage a Malformed fault substitutes
// for a judge completion: bytes no verdict parser accepts, so the
// vote degrades to unparsable/error and panel quorum absorbs it.
const MalformedCompletion = "\x00fault: malformed completion \xff{{{"

// LLM wraps a judge endpoint with completion corruption at point:
// a Malformed decision replaces the member's response with
// MalformedCompletion (one decision per prompt, batches included).
// The wrapper preserves the inner endpoint's ContextLLM and BatchLLM
// capabilities. A nil injector returns inner unchanged.
func LLM(in *Injector, point string, inner judge.LLM) judge.LLM {
	if in == nil {
		return inner
	}
	w := &faultLLM{in: in, point: point, inner: inner}
	if _, ok := inner.(judge.BatchLLM); ok {
		return &faultBatchLLM{faultLLM: w}
	}
	return w
}

type faultLLM struct {
	in    *Injector
	point string
	inner judge.LLM
}

func (l *faultLLM) corrupt(resp string) string {
	if l.in.At(l.point).Kind == Malformed {
		return MalformedCompletion
	}
	return resp
}

func (l *faultLLM) Complete(prompt string) string {
	return l.corrupt(l.inner.Complete(prompt))
}

func (l *faultLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	if cl, ok := l.inner.(judge.ContextLLM); ok {
		resp, err := cl.CompleteContext(ctx, prompt)
		if err != nil {
			return "", err
		}
		return l.corrupt(resp), nil
	}
	return l.corrupt(l.inner.Complete(prompt)), nil
}

type faultBatchLLM struct {
	*faultLLM
}

func (l *faultBatchLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	resps, err := l.inner.(judge.BatchLLM).CompleteBatch(ctx, prompts)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(resps))
	for i, r := range resps {
		out[i] = l.corrupt(r)
	}
	return out, nil
}

// Hook adapts an injector to the store's Options.FaultHook contract:
// the returned function is consulted with low-level operation names
// ("write", "sync", "rename", "dirsync", "truncate", "remove") and
// fails them when "<prefix>.<op>" draws any fault kind. A nil injector
// returns nil (no hook).
func Hook(in *Injector, prefix string) func(op string) error {
	if in == nil {
		return nil
	}
	return func(op string) error {
		point := prefix + "." + op
		if d := in.At(point); d.Kind != None {
			return injectedErr(d.Kind, point)
		}
		return nil
	}
}

package fleet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/judge"
	"repro/internal/server"
)

// fakeReplica is an in-process Client: answers "<addr>:<prompt>",
// records traffic, and can be killed and revived.
type fakeReplica struct {
	addr string
	dead atomic.Bool
	// gate, when set, blocks completions until released — for tests
	// that need requests held in flight.
	gate chan struct{}

	mu      sync.Mutex
	prompts []string
}

func newFakeReplica(addr string) *fakeReplica {
	return &fakeReplica{addr: addr}
}

func (f *fakeReplica) record(ps ...string) {
	f.mu.Lock()
	f.prompts = append(f.prompts, ps...)
	f.mu.Unlock()
}

func (f *fakeReplica) served() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.prompts...)
}

func (f *fakeReplica) wait(ctx context.Context) error {
	if f.gate == nil {
		return nil
	}
	select {
	case <-f.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeReplica) CompleteContext(ctx context.Context, prompt string) (string, error) {
	if f.dead.Load() {
		return "", fmt.Errorf("replica %s is down", f.addr)
	}
	if err := f.wait(ctx); err != nil {
		return "", err
	}
	f.record(prompt)
	return f.addr + ":" + prompt, nil
}

func (f *fakeReplica) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	if f.dead.Load() {
		return nil, fmt.Errorf("replica %s is down", f.addr)
	}
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	f.record(prompts...)
	out := make([]string, len(prompts))
	for i, p := range prompts {
		out[i] = f.addr + ":" + p
	}
	return out, nil
}

func (f *fakeReplica) Ping(ctx context.Context) error {
	if f.dead.Load() {
		return fmt.Errorf("replica %s is down", f.addr)
	}
	return nil
}

// ownerAddr is the address of a key's owner, "" with every replica
// evicted.
func ownerAddr(rt *Router, key judge.PromptKey) string {
	if i := rt.owner(key); i >= 0 {
		return rt.replicas[i].addr
	}
	return ""
}

// healthyCount reads how many replicas Replicas reports healthy.
func healthyCount(rt *Router) int {
	n := 0
	for _, st := range rt.Replicas() {
		if st.Healthy {
			n++
		}
	}
	return n
}

// testRouter builds a Router over fakes with the background health
// loop disabled, so membership changes only when the test asks.
func testRouter(t *testing.T, fakes ...*fakeReplica) *Router {
	t.Helper()
	cfg := Config{HealthInterval: -1}
	for _, f := range fakes {
		cfg.Replicas = append(cfg.Replicas, Replica{Addr: f.addr, Client: f})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	f := newFakeReplica("a")
	if _, err := NewRouter(Config{Replicas: []Replica{{Addr: "", Client: f}}}); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := NewRouter(Config{Replicas: []Replica{{Addr: "a", Client: nil}}}); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := NewRouter(Config{Replicas: []Replica{{Addr: "a", Client: f}, {Addr: "a", Client: f}}}); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

// TestRouterStickiness: a prompt always lands on its owner, so
// the owner's dedup store and cache see every repeat.
func TestRouterStickiness(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	rt := testRouter(t, a, b)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		prompt := fmt.Sprintf("sticky-%d", i%5)
		resp, err := rt.CompleteContext(ctx, prompt)
		if err != nil {
			t.Fatal(err)
		}
		owner := ownerAddr(rt, judge.KeyOf(prompt))
		if want := owner + ":" + prompt; resp != want {
			t.Fatalf("prompt %q answered by %q, owner is %q", prompt, resp, owner)
		}
	}
}

// TestRouterBatchSplitAndOrder: a mixed shard splits by owner,
// fans out, and reassembles in prompt order.
func TestRouterBatchSplitAndOrder(t *testing.T) {
	a, b, c := newFakeReplica("a"), newFakeReplica("b"), newFakeReplica("c")
	rt := testRouter(t, a, b, c)
	prompts := make([]string, 60)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("batch-%d", i)
	}
	resps, err := rt.CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(prompts) {
		t.Fatalf("got %d responses for %d prompts", len(resps), len(prompts))
	}
	for i, resp := range resps {
		if !strings.HasSuffix(resp, ":"+prompts[i]) {
			t.Fatalf("response %d out of order: %q for prompt %q", i, resp, prompts[i])
		}
	}
	used := 0
	for _, f := range []*fakeReplica{a, b, c} {
		if len(f.served()) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("60 prompts landed on %d replica(s); placement not splitting", used)
	}
	if got := rt.Stats().RoutedPrompts; got != int64(len(prompts)) {
		t.Fatalf("RoutedPrompts = %d, want %d", got, len(prompts))
	}
	if empty, err := rt.CompleteBatch(context.Background(), nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

// TestRouterFailover: a dead replica's keys fail over to the next
// successor without surfacing an error, and every response stays
// correct for its prompt.
func TestRouterFailover(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	rt := testRouter(t, a, b)
	b.dead.Store(true)
	ctx := context.Background()
	prompts := make([]string, 30)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("fo-%d", i)
	}
	resps, err := rt.CompleteBatch(ctx, prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if want := "a:" + prompts[i]; resp != want {
			t.Fatalf("response %d = %q, want %q", i, resp, want)
		}
	}
	if rt.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead replica")
	}
	// All replicas dead: the error reports how many were tried.
	a.dead.Store(true)
	if _, err := rt.CompleteContext(ctx, "doomed"); err == nil {
		t.Fatal("want error with every replica dead")
	} else if !strings.Contains(err.Error(), "no replica served") {
		t.Fatalf("unexpected error: %v", err)
	}
	if rt.Complete("doomed") != "" {
		t.Fatal("error-free contract should map failure to empty response")
	}
}

// TestRouterHealthEvictReadmit: CheckNow evicts a dead replica (moving
// its keys) and readmits it on recovery (restoring the original
// placement).
func TestRouterHealthEvictReadmit(t *testing.T) {
	a, b, c := newFakeReplica("a"), newFakeReplica("b"), newFakeReplica("c")
	rt := testRouter(t, a, b, c)
	keys := make([]judge.PromptKey, 300)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = judge.KeyOf(fmt.Sprintf("hm-%d", i))
		before[i] = ownerAddr(rt, keys[i])
	}
	b.dead.Store(true)
	rt.CheckNow()
	st := rt.Replicas()
	if st[0].Healthy != true || st[1].Healthy != false || st[2].Healthy != true {
		t.Fatalf("health after eviction: %+v", st)
	}
	if n := healthyCount(rt); n != 2 {
		t.Fatalf("%d healthy replicas after eviction, want 2", n)
	}
	for i, key := range keys {
		owner := ownerAddr(rt, key)
		if owner == "b" {
			t.Fatal("evicted replica still owns keys")
		}
		if before[i] != "b" && owner != before[i] {
			t.Fatalf("survivor-owned key %d moved from %s to %s", i, before[i], owner)
		}
	}
	b.dead.Store(false)
	rt.CheckNow()
	if n := healthyCount(rt); n != 3 {
		t.Fatalf("%d healthy replicas after readmission, want 3", n)
	}
	for i, key := range keys {
		if owner := ownerAddr(rt, key); owner != before[i] {
			t.Fatalf("key %d not restored after readmission", i)
		}
	}
}

// TestRouterRequestPathEviction: a request failure triggers an async
// probe that evicts a genuinely dead replica without waiting for the
// next health tick.
func TestRouterRequestPathEviction(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	rt := testRouter(t, a, b)
	b.dead.Store(true)
	// Route enough singles that some hit b and fail over.
	for i := 0; i < 20; i++ {
		if _, err := rt.CompleteContext(context.Background(), fmt.Sprintf("rp-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for healthyCount(rt) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("dead replica not evicted by request-path probe")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A success readmits: markUp runs on every successful route.
	b.dead.Store(false)
	rt.CheckNow()
	if healthyCount(rt) != 2 {
		t.Fatal("replica not readmitted after recovery")
	}
}

// TestRouterBoundedLoadSpill: a replica pinned far above the load
// bound stops receiving new keys; they spill to its successor.
func TestRouterBoundedLoadSpill(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	rt := testRouter(t, a, b)
	// Pin a's in-flight count sky-high; every key owned by a must
	// spill to b.
	rt.replicas[0].inflight.Store(1000)
	for i := 0; i < 30; i++ {
		if got := rt.pick(judge.KeyOf(fmt.Sprintf("spill-%d", i)), nil, true); got != 1 {
			t.Fatalf("key routed to overloaded replica %d", got)
		}
	}
	if rt.spills.Load() == 0 {
		t.Fatal("no spills recorded")
	}
	// Both over the bound: fall back to the owner rather than failing.
	rt.replicas[1].inflight.Store(1000)
	if got := rt.pick(judge.KeyOf("spill-anyway"), nil, true); got < 0 {
		t.Fatal("pick found no replica with all replicas over bound")
	}
}

// TestRouterHealthLoop: the background loop evicts and readmits
// without explicit CheckNow calls.
func TestRouterHealthLoop(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	rt, err := NewRouter(Config{
		Replicas:       []Replica{{Addr: "a", Client: a}, {Addr: "b", Client: b}},
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	b.dead.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for healthyCount(rt) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never evicted the dead replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.dead.Store(false)
	for healthyCount(rt) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never readmitted the recovered replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDialParsesAddressList(t *testing.T) {
	rt, err := Dial("127.0.0.1:9991, 127.0.0.1:9992 ,,127.0.0.1:9993")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	want := []string{"127.0.0.1:9991", "127.0.0.1:9992", "127.0.0.1:9993"}
	got := rt.Addrs()
	if len(got) != len(want) {
		t.Fatalf("Addrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Addrs = %v, want %v", got, want)
		}
	}
	if _, err := Dial(" ,, "); err == nil {
		t.Fatal("blank address list accepted")
	}
}

// hungReplica is a fakeReplica whose Ping never answers: it blocks
// until the probe's context expires — the pathology of a replica
// whose accept queue is alive but whose process is wedged.
type hungReplica struct {
	*fakeReplica
}

func (h *hungReplica) Ping(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestRouterHungProbeBoundedByInterval: with PingTimeout unset, the
// probe timeout derives from the health interval (min of the two), so
// a replica that hangs its Ping is evicted within roughly one tick —
// it cannot stall the health pass for the full DefaultPingTimeout.
func TestRouterHungProbeBoundedByInterval(t *testing.T) {
	interval := 25 * time.Millisecond
	hung := &hungReplica{newFakeReplica("hung")}
	ok := newFakeReplica("ok")
	rt, err := NewRouter(Config{
		Replicas:       []Replica{{Addr: "hung", Client: hung}, {Addr: "ok", Client: ok}},
		HealthInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.cfg.PingTimeout != interval {
		t.Fatalf("PingTimeout = %v, want it derived down to the %v interval", rt.cfg.PingTimeout, interval)
	}

	start := time.Now()
	rt.CheckNow()
	elapsed := time.Since(start)
	if elapsed >= DefaultPingTimeout {
		t.Fatalf("health pass took %v with a hung replica; probe timeout not bounded by the interval", elapsed)
	}
	if n := healthyCount(rt); n != 1 {
		t.Fatalf("%d healthy replicas after the pass; the hung replica was not evicted", n)
	}

	// An explicit PingTimeout always wins over the derivation.
	rt2, err := NewRouter(Config{
		Replicas:       []Replica{{Addr: "ok", Client: ok}},
		HealthInterval: interval,
		PingTimeout:    3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if rt2.cfg.PingTimeout != 3*time.Second {
		t.Fatalf("explicit PingTimeout overridden to %v", rt2.cfg.PingTimeout)
	}
}

// sickReplica pings healthy but fails every completion — the failure
// mode health probes cannot catch and the circuit breaker exists for.
type sickReplica struct {
	addr     string
	attempts atomic.Int64
}

func (s *sickReplica) CompleteContext(ctx context.Context, prompt string) (string, error) {
	s.attempts.Add(1)
	return "", fmt.Errorf("replica %s: sick", s.addr)
}

func (s *sickReplica) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	s.attempts.Add(1)
	return nil, fmt.Errorf("replica %s: sick", s.addr)
}

func (s *sickReplica) Ping(ctx context.Context) error { return nil }

// TestBreakerShedsToSuccessorPreservingOrder: a replica that pings
// healthy but fails every request trips its breaker; its keys shed to
// successors at placement time, and batch responses still come
// back in prompt order.
func TestBreakerShedsToSuccessorPreservingOrder(t *testing.T) {
	a := &sickReplica{addr: "a"}
	b, c := newFakeReplica("b"), newFakeReplica("c")
	rt, err := NewRouter(Config{
		Replicas:         []Replica{{Addr: "a", Client: a}, {Addr: "b", Client: b}, {Addr: "c", Client: c}},
		HealthInterval:   -1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // no half-open probe during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	prompts := make([]string, 40)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("order-%d", i)
	}
	// Single-prompt traffic first: every request whose owner is a
	// fails there once and fails over to a successor, so a accumulates
	// consecutive failures until its breaker trips. Health stays green
	// throughout — pings succeed — so the breaker, not eviction, is
	// what sheds.
	for i, p := range prompts {
		resp, err := rt.CompleteContext(context.Background(), p)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if addr, _, _ := strings.Cut(resp, ":"); addr == "a" {
			t.Fatalf("sick replica produced a response for %q", p)
		}
	}
	if got := rt.replicas[0].breaker.State(); got.String() != "open" {
		t.Fatalf("sick replica breaker %v after a full batch of failures", got)
	}
	if !rt.Replicas()[0].Healthy {
		t.Fatal("sick replica was evicted; the test wants the breaker, not health, shedding")
	}

	// Second batch: placement skips the tripped replica outright — no
	// attempts burn on it — and order is still preserved.
	before := a.attempts.Load()
	resps, err := rt.CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if _, rest, _ := strings.Cut(r, ":"); rest != prompts[i] {
			t.Fatalf("post-trip resp[%d] = %q, want %q", i, r, prompts[i])
		}
	}
	if got := a.attempts.Load() - before; got != 0 {
		t.Errorf("tripped replica saw %d attempts; placement should shed", got)
	}
	st := rt.Replicas()[0]
	if st.Breaker != "open" || st.BreakerTrips < 1 {
		t.Errorf("ReplicaStatus breaker = %q trips = %d, want open/>=1", st.Breaker, st.BreakerTrips)
	}
}

// TestProbeFaultInjectionFlapsReplica: a fleet.probe fault schedule
// makes a perfectly healthy replica flap out of and back into the
// fleet, deterministically.
func TestProbeFaultInjectionFlapsReplica(t *testing.T) {
	a, b := newFakeReplica("a"), newFakeReplica("b")
	inj := fault.New(7, &fault.Rule{Point: "fleet.probe:a", Kind: fault.Flap, Every: 2})
	rt, err := NewRouter(Config{
		Replicas:       []Replica{{Addr: "a", Client: a}, {Addr: "b", Client: b}},
		HealthInterval: -1,
		Fault:          inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rt.CheckNow() // probe 1: no fault, both healthy
	if !rt.Replicas()[0].Healthy {
		t.Fatal("replica a evicted on a clean probe")
	}
	rt.CheckNow() // probe 2: fault fires, a flaps out
	if rt.Replicas()[0].Healthy {
		t.Fatal("replica a survived an injected probe failure")
	}
	if rt.Replicas()[1].Healthy != true {
		t.Fatal("uninjected replica b evicted")
	}
	rt.CheckNow() // probe 3: clean again, a readmitted
	if !rt.Replicas()[0].Healthy {
		t.Fatal("replica a not readmitted after the flap")
	}
	if inj.InjectedTotal() != 1 {
		t.Errorf("injected %d faults, want 1", inj.InjectedTotal())
	}
}

// TestRouterRetriesSum: Router.Retries sums client counters through
// the optional interface; fakes without one contribute zero.
func TestRouterRetriesSum(t *testing.T) {
	a := newFakeReplica("a")
	rt := testRouter(t, a)
	if got := rt.Retries(); got != 0 {
		t.Fatalf("fake clients reported %d retries", got)
	}
	if got := len(rt.BreakerStates()); got != 1 {
		t.Fatalf("BreakerStates reported %d entries", got)
	}
}

// describingReplica is a fakeReplica that also answers Info, the way a
// daemon's /v1/backends does; failing makes Info error while the
// replica stays healthy.
type describingReplica struct {
	*fakeReplica
	failing bool
}

func (d *describingReplica) Info(context.Context) (server.BackendsResponse, error) {
	if d.failing {
		return server.BackendsResponse{}, fmt.Errorf("replica %s cannot describe itself", d.addr)
	}
	return server.BackendsResponse{Serving: "deepseek-sim", Seed: 7, ReplicaID: d.addr}, nil
}

// TestRouterInfo: the first healthy replica that describes itself
// answers for the fleet, with the replica list attached; evicted
// replicas are skipped; with no describer the fleet reports its shape.
func TestRouterInfo(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clients func() []Client
		evict   string // replica killed and evicted before Info
		answer  string // ReplicaID of the describing replica; "" for the shape
		wantErr bool
	}{
		{
			name: "first healthy describer",
			clients: func() []Client {
				return []Client{&describingReplica{fakeReplica: newFakeReplica("a")}, &describingReplica{fakeReplica: newFakeReplica("b")}}
			},
			answer: "a",
		},
		{
			name: "evicted first replica skipped",
			clients: func() []Client {
				return []Client{&describingReplica{fakeReplica: newFakeReplica("a")}, &describingReplica{fakeReplica: newFakeReplica("b")}}
			},
			evict:  "a",
			answer: "b",
		},
		{
			name: "failing describer skipped",
			clients: func() []Client {
				return []Client{&describingReplica{fakeReplica: newFakeReplica("a"), failing: true}, &describingReplica{fakeReplica: newFakeReplica("b")}}
			},
			answer: "b",
		},
		{
			name: "no describer gives the fleet shape",
			clients: func() []Client {
				return []Client{newFakeReplica("a"), newFakeReplica("b")}
			},
		},
		{
			name: "every describer failing gives the shape and the error",
			clients: func() []Client {
				return []Client{&describingReplica{fakeReplica: newFakeReplica("a"), failing: true}, &describingReplica{fakeReplica: newFakeReplica("b"), failing: true}}
			},
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{HealthInterval: -1}
			for i, c := range tc.clients() {
				addr := string(rune('a' + i))
				cfg.Replicas = append(cfg.Replicas, Replica{Addr: addr, Client: c})
				if addr == tc.evict {
					c.(*describingReplica).dead.Store(true)
				}
			}
			rt, err := NewRouter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rt.CheckNow()

			info, err := rt.Info(context.Background())
			if (err != nil) != tc.wantErr {
				t.Fatalf("Info error %v, want error: %v", err, tc.wantErr)
			}
			if got := strings.Join(info.Replicas, ","); got != "a,b" {
				t.Errorf("Replicas = %q, want a,b", got)
			}
			if tc.answer != "" {
				if info.ReplicaID != tc.answer || info.Serving != "deepseek-sim" || info.Seed != 7 {
					t.Errorf("answered by %+v, want replica %s's description", info, tc.answer)
				}
				return
			}
			if info.Serving != "fleet:a,b" || !info.Batch || info.ReplicaID != "" {
				t.Errorf("shape %+v, want Serving fleet:a,b with Batch set", info)
			}
		})
	}
}

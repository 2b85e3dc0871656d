// Package fleet is the horizontal-scaling tier over N llm4vvd judge
// daemons: a Router that fronts a replica set behind the judge.LLM /
// ContextLLM / BatchLLM contracts, so every experiment, Runner sweep,
// and panel runs unmodified against a whole fleet — and scales by
// adding replicas.
//
// Placement is consistent hashing on judge.PromptKey over a virtual-
// node ring (Ring): each prompt's completion — and therefore its
// replica-side dedup store record — lives on exactly one replica,
// every client agrees which, and membership changes move only the
// departed replica's ~1/N share of the key space, so resume sweeps
// stay store-hot through churn. Routing is bounded-load: a
// replica already carrying more than LoadFactor times its fair share
// of in-flight prompts is skipped and the key spills to the next ring
// successor, which keeps one hot arc from serialising a sweep.
//
// Health is watched two ways: a background loop pings every replica
// (Config.HealthInterval) and evicts/readmits ring membership, and a
// failed request triggers an immediate probe so a dead replica leaves
// the ring within one health check rather than failing requests until
// the next tick. Requests that catch a replica dying fail over to the
// key's next ring successor; with every replica serving the same
// backend and seed, the completion — and the finished report — is
// byte-identical wherever it resolves, and re-resolution after a kill
// costs at most re-judging the keys whose owner died (their store
// dedup on the new owner absorbs repeats).
//
// The HTTP face of the tier is Frontend (cmd/llm4vv-router): the
// daemon's own wire protocol (server.Face) over a Router, admitted by
// priority-class ceilings and per-client quotas — see frontend.go.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/judge"
	"repro/internal/remote"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/trace"
)

// Defaults for Config zero values.
const (
	// DefaultLoadFactor is the bounded-load spill threshold: a replica
	// may carry at most this multiple of the fleet-average in-flight
	// prompts before keys spill to the next successor.
	DefaultLoadFactor = 1.25
	// DefaultHealthInterval paces the background health loop.
	DefaultHealthInterval = 250 * time.Millisecond
	// DefaultPingTimeout caps one health probe. The effective default
	// is the smaller of this and the health interval: a probe must
	// resolve within its own tick, or a hung replica (accepting
	// connections but never answering) would stall eviction past the
	// very interval that exists to bound detection time.
	DefaultPingTimeout = time.Second
)

// Client is what the Router needs from a replica: the batched and
// cancellable completion contracts plus a liveness probe. The
// internal/remote Backend satisfies it; tests inject fakes.
type Client interface {
	judge.ContextLLM
	judge.BatchLLM
	Ping(ctx context.Context) error
}

// Replica is one fleet member: its address (the ring identity and the
// metrics label) and its client.
type Replica struct {
	Addr   string
	Client Client
}

// Config configures a Router. Replicas is the only required field.
type Config struct {
	Replicas []Replica
	// Vnodes per replica on the ring; <= 0 means DefaultVnodes.
	Vnodes int
	// LoadFactor is the bounded-load threshold; <= 1 means
	// DefaultLoadFactor.
	LoadFactor float64
	// HealthInterval paces the background ping loop; 0 means
	// DefaultHealthInterval, negative disables the loop (request-path
	// probes still evict, tests drive readmission via CheckNow).
	HealthInterval time.Duration
	// PingTimeout bounds one probe; <= 0 derives it from the health
	// interval (min(HealthInterval, DefaultPingTimeout)) so eviction of
	// a hung replica never waits longer than one health tick.
	PingTimeout time.Duration
	// Logger receives structured membership events (evictions,
	// readmissions) with replica_id fields; nil discards them.
	Logger *slog.Logger
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's circuit breaker; <= 0 means the resilience default.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped replica is refused before
	// a half-open probe; <= 0 means the resilience default.
	BreakerCooldown time.Duration
	// Fault, when non-nil, injects deterministic faults into the
	// health machinery: probes consult "fleet.probe:<addr>" and a
	// drawn fault fails the probe (the replica flaps). Production
	// leaves it nil; cmd/llm4vv-router wires its -fault flag here.
	Fault *fault.Injector
}

// replicaState is one member's runtime: health, load, breaker, and
// counters.
type replicaState struct {
	addr     string
	client   Client
	breaker  *resilience.Breaker
	healthy  atomic.Bool
	inflight atomic.Int64
	prompts  atomic.Int64
	failures atomic.Int64
}

// Router fronts a replica fleet behind the judge endpoint contracts.
// Construct with NewRouter or Dial; Close stops the health loop.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas []*replicaState
	byAddr   map[string]*replicaState

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	requests      atomic.Int64
	batchRequests atomic.Int64
	routedPrompts atomic.Int64
	failovers     atomic.Int64
	spills        atomic.Int64
}

// NewRouter builds a Router over cfg and starts its health loop. All
// replicas start healthy; the first probe corrects optimism within one
// HealthInterval.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	if cfg.LoadFactor <= 1 {
		cfg.LoadFactor = DefaultLoadFactor
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = DefaultPingTimeout
		if cfg.HealthInterval > 0 && cfg.HealthInterval < cfg.PingTimeout {
			cfg.PingTimeout = cfg.HealthInterval
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Vnodes),
		byAddr: make(map[string]*replicaState, len(cfg.Replicas)),
		done:   make(chan struct{}),
	}
	for _, r := range cfg.Replicas {
		if r.Addr == "" || r.Client == nil {
			return nil, fmt.Errorf("fleet: replica with empty address or nil client")
		}
		if _, dup := rt.byAddr[r.Addr]; dup {
			return nil, fmt.Errorf("fleet: replica %s configured twice", r.Addr)
		}
		st := &replicaState{
			addr:   r.Addr,
			client: r.Client,
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
			}),
		}
		st.healthy.Store(true)
		rt.replicas = append(rt.replicas, st)
		rt.byAddr[r.Addr] = st
		rt.ring.Add(r.Addr)
	}
	if cfg.HealthInterval > 0 {
		rt.wg.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// Dial builds a Router over a comma-separated replica address list,
// one remote client per replica. Per-replica retries are kept low —
// the Router's own failover is the retry tier, and burning a full
// exponential backoff on a corpse would stall every key it owned.
func Dial(addrs string, opts ...remote.Option) (*Router, error) {
	return DialConfig(addrs, Config{}, opts...)
}

// DialConfig is Dial with the routing knobs exposed: cfg carries
// Vnodes, LoadFactor, HealthInterval, and PingTimeout, while
// cfg.Replicas is replaced by clients dialled from the address list.
func DialConfig(addrs string, cfg Config, opts ...remote.Option) (*Router, error) {
	cfg.Replicas = nil
	for _, a := range SplitAddrs(addrs) {
		o := append([]remote.Option{remote.WithRetries(1)}, opts...)
		cfg.Replicas = append(cfg.Replicas, Replica{Addr: a, Client: remote.New(a, o...)})
	}
	return NewRouter(cfg)
}

// SplitAddrs reads a comma-separated address list the way Dial does:
// entries trimmed, empty ones dropped.
func SplitAddrs(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Close stops the health loop. In-flight requests finish on their own.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// healthLoop pings every replica each interval, evicting failures from
// the ring and readmitting recoveries.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-ticker.C:
			rt.CheckNow()
		}
	}
}

// CheckNow probes every replica once, concurrently, and applies the
// evictions and readmissions. The health loop calls it on its tick;
// tests call it directly for deterministic membership transitions.
func (rt *Router) CheckNow() {
	var wg sync.WaitGroup
	for _, st := range rt.replicas {
		wg.Add(1)
		go func(st *replicaState) {
			defer wg.Done()
			if rt.probe(st) == nil {
				rt.markUp(st)
			} else {
				rt.markDown(st)
			}
		}(st)
	}
	wg.Wait()
}

// probe pings one replica within the ping timeout, with the
// "fleet.probe:<addr>" fault injection point applied on top: a drawn
// fault fails an otherwise healthy probe, which is how a chaos
// schedule makes a live replica flap in and out of the ring.
func (rt *Router) probe(st *replicaState) error {
	if d := rt.cfg.Fault.At("fleet.probe:" + st.addr); d.Kind != fault.None {
		return fmt.Errorf("%w: probe of %s", fault.ErrInjected, st.addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.PingTimeout)
	defer cancel()
	return st.client.Ping(ctx)
}

// markDown evicts a replica from the ring (idempotent).
func (rt *Router) markDown(st *replicaState) {
	if st.healthy.CompareAndSwap(true, false) {
		rt.ring.Remove(st.addr)
		rt.cfg.Logger.Warn("fleet: replica evicted", "replica_id", st.addr, "failures", st.failures.Load())
	}
}

// markUp readmits a replica to the ring (idempotent).
func (rt *Router) markUp(st *replicaState) {
	if st.healthy.CompareAndSwap(false, true) {
		rt.ring.Add(st.addr)
		rt.cfg.Logger.Info("fleet: replica readmitted", "replica_id", st.addr)
	}
}

// probeAsync verifies a replica that just failed a request, off the
// request path: a dead replica leaves the ring as soon as the probe
// fails instead of waiting for the next health tick, while a replica
// that merely served one bad response stays seated.
func (rt *Router) probeAsync(st *replicaState) {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		if rt.probe(st) != nil {
			rt.markDown(st)
		}
	}()
}

// loadBound is the bounded-load admission ceiling: LoadFactor times
// the fair per-replica share of the current in-flight total (counting
// the prompt being placed), never below 1.
func (rt *Router) loadBound() int64 {
	n := rt.ring.Len()
	if n == 0 {
		n = len(rt.replicas)
	}
	var total int64
	for _, st := range rt.replicas {
		total += st.inflight.Load()
	}
	fair := (total + int64(n)) / int64(n) // ceil((total+1)/n)
	bound := int64(rt.cfg.LoadFactor * float64(fair))
	if bound < 1 {
		bound = 1
	}
	return bound
}

// pick selects the replica for a key, excluding already-tried members:
// the ring owner when it is under the load bound and its circuit
// breaker admits, else the first successor passing both checks (a
// bounded-load spill or a breaker shed — either way the key moves to
// its next ring successor, so batch grouping and reassembly order are
// untouched), else the owner regardless — progress beats balance and
// protection both. With the whole ring evicted it falls back to the
// configured order, so a fleet whose health probes all fail still
// serves whatever is actually alive.
//
// consume distinguishes placement from dispatch: a dispatching pick
// (route) claims a tripped replica's half-open probe slot via
// Breaker.Allow, while a planning pick (batch grouping, which route
// re-picks behind) only reads the breaker state so it cannot leak the
// probe slot on a request that is regrouped before it is sent.
func (rt *Router) pick(key judge.PromptKey, tried map[string]bool, consume bool) *replicaState {
	var first *replicaState
	bound := rt.loadBound()
	for _, addr := range rt.ring.Successors(key, len(rt.replicas)) {
		if tried[addr] {
			continue
		}
		st := rt.byAddr[addr]
		if first == nil {
			first = st
		}
		if st.inflight.Load() >= bound {
			continue
		}
		if consume {
			if !st.breaker.Allow() {
				continue
			}
		} else if st.breaker.State() == resilience.StateOpen {
			continue
		}
		if st != first {
			rt.spills.Add(1)
		}
		return st
	}
	if first != nil {
		return first
	}
	for _, st := range rt.replicas {
		if !tried[st.addr] {
			return st
		}
	}
	return nil
}

// route resolves one group of prompts that share a ring placement key:
// try the pick, fail over to the key's next successor on error, at
// most once per replica. A success on any replica readmits it. When
// the context carries a trace, every attempt — the owner placement,
// bounded-load spills, failover hops — records a "fleet.attempt" span,
// so a traced file explains exactly which replicas it visited and why
// it left them.
func (rt *Router) route(ctx context.Context, key judge.PromptKey, prompts []string) ([]string, error) {
	tried := make(map[string]bool, 2)
	var lastErr error
	for hop := 0; len(tried) < len(rt.replicas); hop++ {
		st := rt.pick(key, tried, true)
		if st == nil {
			break
		}
		actx, span := trace.Start(ctx, "fleet.attempt")
		if span != nil {
			span.SetAttr("replica", st.addr)
			span.SetAttr("hop", strconv.Itoa(hop))
			span.SetAttr("prompts", strconv.Itoa(len(prompts)))
			if owners := rt.ring.Successors(key, 1); len(owners) == 1 && owners[0] != st.addr {
				span.SetAttr("spill", "true")
			}
		}
		n := int64(len(prompts))
		st.inflight.Add(n)
		var resps []string
		var err error
		if len(prompts) == 1 {
			// Preserve the single-prompt wire path so replica-side
			// micro-batching still coalesces interactive traffic.
			var resp string
			resp, err = st.client.CompleteContext(actx, prompts[0])
			resps = []string{resp}
		} else {
			resps, err = st.client.CompleteBatch(actx, prompts)
		}
		st.inflight.Add(-n)
		if err == nil {
			span.End()
			st.prompts.Add(n)
			rt.routedPrompts.Add(n)
			st.breaker.Success()
			rt.markUp(st)
			return resps, nil
		}
		span.SetAttr("error", err.Error())
		span.End()
		if ctx.Err() != nil {
			return nil, err
		}
		st.failures.Add(1)
		st.breaker.Failure()
		rt.probeAsync(st)
		tried[st.addr] = true
		lastErr = err
		rt.failovers.Add(1)
	}
	return nil, fmt.Errorf("fleet: no replica served the request (%d tried): %w", len(tried), lastErr)
}

// Complete implements judge.LLM; like the remote client, the
// error-free contract maps failure to an empty (unparsable) response.
func (rt *Router) Complete(prompt string) string {
	resp, err := rt.CompleteContext(context.Background(), prompt)
	if err != nil {
		return ""
	}
	return resp
}

// CompleteContext implements judge.ContextLLM: one prompt, routed to
// its ring owner with health-aware failover.
func (rt *Router) CompleteContext(ctx context.Context, prompt string) (string, error) {
	rt.requests.Add(1)
	resps, err := rt.route(ctx, judge.KeyOf(prompt), []string{prompt})
	if err != nil {
		return "", err
	}
	return resps[0], nil
}

// CompleteBatch implements judge.BatchLLM: the shard is split by ring
// owner, the per-replica groups are fanned out concurrently — one
// CompleteBatch wire call each — and the responses are reassembled in
// prompt order. A group whose owner dies mid-call fails over to the
// key's next successor; only if every replica refuses does the whole
// shard error, matching the single-endpoint contract.
func (rt *Router) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	rt.batchRequests.Add(1)
	if len(prompts) == 0 {
		return []string{}, nil
	}
	type group struct {
		key     judge.PromptKey // first member's key: the failover walk anchor
		idxs    []int
		prompts []string
	}
	groups := map[string]*group{}
	var order []*group
	for i, p := range prompts {
		key := judge.KeyOf(p)
		st := rt.pick(key, nil, false)
		if st == nil {
			return nil, fmt.Errorf("fleet: no replicas available")
		}
		g, ok := groups[st.addr]
		if !ok {
			g = &group{key: key}
			groups[st.addr] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
		g.prompts = append(g.prompts, p)
	}
	out := make([]string, len(prompts))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for gi, g := range order {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			resps, err := rt.route(ctx, g.key, g.prompts)
			if err != nil {
				errs[gi] = err
				return
			}
			for j, idx := range g.idxs {
				out[idx] = resps[j]
			}
		}(gi, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stats is a snapshot of the routing counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Requests:      rt.requests.Load(),
		BatchRequests: rt.batchRequests.Load(),
		RoutedPrompts: rt.routedPrompts.Load(),
		Failovers:     rt.failovers.Load(),
		Spills:        rt.spills.Load(),
	}
}

// Replicas reports every member's address, health, breaker state, and
// counters, in configured order.
func (rt *Router) Replicas() []ReplicaStatus {
	out := make([]ReplicaStatus, len(rt.replicas))
	for i, st := range rt.replicas {
		out[i] = ReplicaStatus{
			Addr:         st.addr,
			Healthy:      st.healthy.Load(),
			Inflight:     st.inflight.Load(),
			Prompts:      st.prompts.Load(),
			Failures:     st.failures.Load(),
			Breaker:      st.breaker.State().String(),
			BreakerTrips: st.breaker.Trips(),
		}
	}
	return out
}

// BreakerStates reports every replica's circuit-breaker status in
// configured order — the optional interface metrics endpoints
// discover on endpoints fronting multiple targets, so a daemon
// serving a "fleet:" backend exports the same gauge the router does.
func (rt *Router) BreakerStates() []resilience.BreakerStatus {
	out := make([]resilience.BreakerStatus, len(rt.replicas))
	for i, st := range rt.replicas {
		out[i] = resilience.BreakerStatus{ID: st.addr, State: st.breaker.State(), Trips: st.breaker.Trips()}
	}
	return out
}

// Retries sums the retry waits performed by every replica client that
// exposes a Retries() counter (the internal/remote Backend does) —
// the series behind llm4vv_resilience_retries_total on the router.
func (rt *Router) Retries() int64 {
	var total int64
	for _, st := range rt.replicas {
		if r, ok := st.client.(interface{ Retries() int64 }); ok {
			total += r.Retries()
		}
	}
	return total
}

// Info answers /v1/backends for the fleet: the first healthy replica
// that describes itself within 2s (replicas of one fleet serve the
// same backend), with Replicas set. Failing that, the fleet's shape,
// plus the last describer's error if one was tried.
func (rt *Router) Info(ctx context.Context) (server.BackendsResponse, error) {
	info := server.BackendsResponse{Serving: "fleet:" + strings.Join(rt.Addrs(), ","), Batch: true}
	var err error
	for _, st := range rt.replicas {
		d, ok := st.client.(interface {
			Info(context.Context) (server.BackendsResponse, error)
		})
		if !ok || !st.healthy.Load() {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, 2*time.Second)
		got, derr := d.Info(actx)
		cancel()
		if err = derr; err == nil {
			info = got
			break
		}
	}
	info.Replicas = rt.Addrs()
	return info, err
}

// Addrs reports the configured replica addresses in order.
func (rt *Router) Addrs() []string {
	out := make([]string, len(rt.replicas))
	for i, st := range rt.replicas {
		out[i] = st.addr
	}
	return out
}

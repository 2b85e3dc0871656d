// Package fleet is the horizontal-scaling tier over N llm4vvd judge
// daemons: a Router that fronts a replica set behind the judge.LLM /
// ContextLLM / BatchLLM contracts, so every experiment, Runner sweep,
// and panel runs unmodified against a whole fleet — and scales by
// adding replicas.
//
// Placement is rendezvous (highest-random-weight) hashing of
// judge.PromptKey over the fixed replica list: every replica scores
// every key, and the key's successor order is the replicas by
// descending score. Each prompt's completion — and therefore its
// replica-side dedup store record — lives on exactly one replica,
// every client agrees which, and an evicted replica is simply skipped
// in that order, so only its ~1/N share of the key space moves and
// readmission restores the old placement: resume sweeps stay
// store-hot through churn. Routing is bounded-load: a replica already
// carrying more than LoadFactor times its fair share of in-flight
// prompts is skipped and the key spills to its next successor, which
// keeps one hot key range from serialising a sweep.
//
// Health is watched two ways: a background loop pings every replica
// (Config.HealthInterval) and evicts/readmits it, and a failed request
// triggers an immediate probe so a dead replica is evicted within one
// health check rather than failing requests until the next tick.
// Requests that catch a replica dying fail over to the key's next
// successor; with every replica serving the same backend and seed,
// the completion — and the finished report — is byte-identical
// wherever it resolves, and re-resolution after a kill
// costs at most re-judging the keys whose owner died (their store
// dedup on the new owner absorbs repeats).
//
// The HTTP face of the tier is Frontend (cmd/llm4vv-router): the
// daemon's own wire protocol (server.Face) over a Router, admitted by
// priority-class ceilings and per-client quotas — see frontend.go.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
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
	"repro/internal/rng"
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

// Replica is one fleet member: its address (the placement identity and
// the metrics label) and its client.
type Replica struct {
	Addr   string
	Client Client
}

// Config configures a Router. Replicas is the only required field.
type Config struct {
	Replicas []Replica
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

// replicaState is one member's runtime: placement seed, health, load,
// breaker, and counters. healthy is the only record of membership: an
// evicted replica keeps its place in the list and placement skips it.
type replicaState struct {
	addr     string
	client   Client
	seed     uint64 // first 8 bytes of SHA-256(addr); see score
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
	replicas []*replicaState

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
	rt := &Router{cfg: cfg, done: make(chan struct{})}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, r := range cfg.Replicas {
		if r.Addr == "" || r.Client == nil {
			return nil, fmt.Errorf("fleet: replica with empty address or nil client")
		}
		if seen[r.Addr] {
			return nil, fmt.Errorf("fleet: replica %s configured twice", r.Addr)
		}
		seen[r.Addr] = true
		sum := sha256.Sum256([]byte(r.Addr))
		st := &replicaState{
			addr:   r.Addr,
			client: r.Client,
			seed:   binary.BigEndian.Uint64(sum[:8]),
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
			}),
		}
		st.healthy.Store(true)
		rt.replicas = append(rt.replicas, st)
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
// LoadFactor, HealthInterval, and PingTimeout, while
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

// healthLoop pings every replica each interval, evicting failures and
// readmitting recoveries.
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
// schedule makes a live replica flap in and out of the fleet.
func (rt *Router) probe(st *replicaState) error {
	if d := rt.cfg.Fault.At("fleet.probe:" + st.addr); d.Kind != fault.None {
		return fmt.Errorf("%w: probe of %s", fault.ErrInjected, st.addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.PingTimeout)
	defer cancel()
	return st.client.Ping(ctx)
}

// markDown evicts a replica (idempotent): placement skips it until
// markUp.
func (rt *Router) markDown(st *replicaState) {
	if st.healthy.CompareAndSwap(true, false) {
		rt.cfg.Logger.Warn("fleet: replica evicted", "replica_id", st.addr, "failures", st.failures.Load())
	}
}

// markUp readmits a replica (idempotent): its keys come back to it.
func (rt *Router) markUp(st *replicaState) {
	if st.healthy.CompareAndSwap(false, true) {
		rt.cfg.Logger.Info("fleet: replica readmitted", "replica_id", st.addr)
	}
}

// probeAsync verifies a replica that just failed a request, off the
// request path: a dead replica is evicted as soon as the probe
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
// the fair per-healthy-replica share of the current in-flight total
// (counting the prompt being placed), never below 1.
func (rt *Router) loadBound() int64 {
	var total, n int64
	for _, st := range rt.replicas {
		total += st.inflight.Load()
		if st.healthy.Load() {
			n++
		}
	}
	if n == 0 {
		n = int64(len(rt.replicas))
	}
	fair := (total + n) / n // ceil((total+1)/n)
	bound := int64(rt.cfg.LoadFactor * float64(fair))
	if bound < 1 {
		bound = 1
	}
	return bound
}

// score is a replica's rendezvous weight for a key hashing to h: a
// SplitMix64 mix of the key hash XOR the replica's seed, so each
// replica ranks the key space independently of every other.
func score(h, seed uint64) uint64 { return rng.Mix(h ^ seed) }

// keyHash folds a prompt key to 64 bits: the first 8 bytes of the
// SHA-256 already are a uniform value.
func keyHash(key judge.PromptKey) uint64 {
	return binary.BigEndian.Uint64(key[:8])
}

// next returns the index of the replica ranked just after replica prev
// in the successor order of a key hashing to h (prev < 0 asks for the
// first), or -1 past the last. The order is descending score with
// ties to the lower configured index — a total order over the fixed
// replica list, so walking it visits every replica once, every caller
// walks it identically, and skipping a replica is the same as
// removing it.
func (rt *Router) next(h uint64, prev int) int {
	var prevScore uint64
	if prev >= 0 {
		prevScore = score(h, rt.replicas[prev].seed)
	}
	best, bestScore := -1, uint64(0)
	for i, st := range rt.replicas {
		s := score(h, st.seed)
		if prev >= 0 && (s > prevScore || s == prevScore && i <= prev) {
			continue // ranked at or before prev
		}
		if best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// owner is the index of a key's owner — its best-scored healthy
// replica — or -1 with every replica evicted.
func (rt *Router) owner(key judge.PromptKey) int {
	h := keyHash(key)
	for i := rt.next(h, -1); i >= 0; i = rt.next(h, i) {
		if rt.replicas[i].healthy.Load() {
			return i
		}
	}
	return -1
}

// pick selects the replica index for a key, excluding evicted replicas
// and those marked in tried (nil tries none): the owner when it is
// under the load bound and its circuit breaker admits, else the first
// successor passing both checks (a bounded-load spill or a breaker
// shed — either way the key moves to its next successor, so batch
// grouping and reassembly order are untouched), else the owner
// regardless — progress beats balance and protection both. With every
// replica evicted it falls back to the first untried replica in
// successor order, so a fleet whose health probes all fail still
// serves whatever is actually alive. It returns -1 once every replica
// has been tried, and allocates nothing.
//
// consume distinguishes placement from dispatch: a dispatching pick
// (route) claims a tripped replica's half-open probe slot via
// Breaker.Allow, while a planning pick (batch grouping, which route
// re-picks behind) only reads the breaker state so it cannot leak the
// probe slot on a request that is regrouped before it is sent.
func (rt *Router) pick(key judge.PromptKey, tried []bool, consume bool) int {
	h := keyHash(key)
	first, fallback := -1, -1
	bound := rt.loadBound()
	for i := rt.next(h, -1); i >= 0; i = rt.next(h, i) {
		if tried != nil && tried[i] {
			continue
		}
		if fallback < 0 {
			fallback = i
		}
		st := rt.replicas[i]
		if !st.healthy.Load() {
			continue
		}
		if first < 0 {
			first = i
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
		if i != first {
			rt.spills.Add(1)
		}
		return i
	}
	if first >= 0 {
		return first
	}
	return fallback
}

// route resolves one group of prompts that share a placement key: try
// the pick, fail over to the key's next successor on error, at most
// once per replica. A success on any replica readmits it. When
// the context carries a trace, every attempt — the owner placement,
// bounded-load spills, failover hops — records a "fleet.attempt" span,
// so a traced file explains exactly which replicas it visited and why
// it left them.
func (rt *Router) route(ctx context.Context, key judge.PromptKey, prompts []string) ([]string, error) {
	tried := make([]bool, len(rt.replicas))
	var lastErr error
	for hop := 0; ; hop++ {
		i := rt.pick(key, tried, true)
		if i < 0 {
			return nil, fmt.Errorf("fleet: no replica served the request (%d tried): %w", hop, lastErr)
		}
		st := rt.replicas[i]
		actx, span := trace.Start(ctx, "fleet.attempt")
		if span != nil {
			span.SetAttr("replica", st.addr)
			span.SetAttr("hop", strconv.Itoa(hop))
			span.SetAttr("prompts", strconv.Itoa(len(prompts)))
			if o := rt.owner(key); o >= 0 && o != i {
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
		tried[i] = true
		lastErr = err
		rt.failovers.Add(1)
	}
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
// its owner with health-aware failover.
func (rt *Router) CompleteContext(ctx context.Context, prompt string) (string, error) {
	rt.requests.Add(1)
	resps, err := rt.route(ctx, judge.KeyOf(prompt), []string{prompt})
	if err != nil {
		return "", err
	}
	return resps[0], nil
}

// CompleteBatch implements judge.BatchLLM: the shard is split by
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
	groups := make([]*group, len(rt.replicas)) // by picked replica
	var order []*group
	for i, p := range prompts {
		key := judge.KeyOf(p)
		r := rt.pick(key, nil, false)
		g := groups[r]
		if g == nil {
			g = &group{key: key}
			groups[r] = g
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

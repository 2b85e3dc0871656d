package llm4vv

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ensemble"
	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/remote"
	"repro/internal/rng"
)

// DefaultBackend names the registered endpoint every published
// experiment number was measured with: the simulated
// deepseek-coder-33B-instruct model.
const DefaultBackend = "deepseek-sim"

// BackendFactory constructs an LLM endpoint for a sampling seed. Equal
// seeds must give equal behaviour for experiments to stay reproducible.
//
// The required contract is judge.LLM (one prompt, one response), and
// endpoints opt into richer handling by implementing the optional
// capabilities: judge.ContextLLM for in-flight cancellation,
// judge.BatchLLM to receive whole shards of prompts in one
// CompleteBatch call (the Runner's sharded scheduler and the
// pipeline's judge stage detect it and batch accordingly), and
// genloop.Author (a GenerateTest method) for test authoring. The
// simulated deepseek backend implements Complete, CompleteBatch, and
// GenerateTest.
type BackendFactory func(seed uint64) judge.LLM

var backendRegistry = struct {
	sync.RWMutex
	factories map[string]BackendFactory
}{factories: map[string]BackendFactory{}}

// RegisterBackend makes an endpoint constructable by name through
// NewBackend and WithBackend, so alternate or simulated endpoints plug
// into every experiment without touching harness code. It panics on an
// empty name or a duplicate registration — both are programmer errors,
// caught at init time like http.Handle.
func RegisterBackend(name string, factory BackendFactory) {
	if name == "" || factory == nil {
		panic("llm4vv: RegisterBackend with empty name or nil factory")
	}
	backendRegistry.Lock()
	defer backendRegistry.Unlock()
	if _, dup := backendRegistry.factories[name]; dup {
		panic(fmt.Sprintf("llm4vv: backend %q registered twice", name))
	}
	backendRegistry.factories[name] = factory
}

// BackendSchemeFactory constructs an endpoint for a dynamic
// "scheme:argument" backend name, receiving the argument after the
// colon. The seed contract matches BackendFactory, though a scheme
// may document it as inert (a remote daemon's seed is fixed
// server-side).
type BackendSchemeFactory func(arg string, seed uint64) judge.LLM

var schemeRegistry = struct {
	sync.RWMutex
	factories map[string]BackendSchemeFactory
}{factories: map[string]BackendSchemeFactory{}}

// RegisterBackendScheme makes a whole family of endpoints
// constructable by prefixed name: after RegisterBackendScheme("remote",
// f), any "remote:<addr>" resolves through f without each address
// being registered individually. Concrete registrations take
// precedence over scheme resolution. Like RegisterBackend it panics
// on an empty scheme or a duplicate registration.
func RegisterBackendScheme(scheme string, factory BackendSchemeFactory) {
	if scheme == "" || factory == nil {
		panic("llm4vv: RegisterBackendScheme with empty scheme or nil factory")
	}
	schemeRegistry.Lock()
	defer schemeRegistry.Unlock()
	if _, dup := schemeRegistry.factories[scheme]; dup {
		panic(fmt.Sprintf("llm4vv: backend scheme %q registered twice", scheme))
	}
	schemeRegistry.factories[scheme] = factory
}

// NewBackend constructs the named endpoint with the given seed.
// Concrete registered names resolve first; names of the form
// "scheme:argument" then fall back to the scheme registry (so
// "remote:127.0.0.1:8080" dials a judging daemon without prior
// registration). Unknown names — and factories that return nil —
// are errors, not panics, because names arrive from flags and
// requests at runtime.
func NewBackend(name string, seed uint64) (judge.LLM, error) {
	backendRegistry.RLock()
	factory, ok := backendRegistry.factories[name]
	backendRegistry.RUnlock()
	if !ok {
		scheme, arg, cut := strings.Cut(name, ":")
		if cut {
			schemeRegistry.RLock()
			sf, sok := schemeRegistry.factories[scheme]
			schemeRegistry.RUnlock()
			if sok {
				if llm := sf(arg, seed); llm != nil {
					return llm, nil
				}
				return nil, fmt.Errorf("llm4vv: backend scheme %q produced no endpoint for %q", scheme, name)
			}
		}
		return nil, fmt.Errorf("llm4vv: unknown backend %q (registered: %v)", name, Backends())
	}
	llm := factory(seed)
	if llm == nil {
		return nil, fmt.Errorf("llm4vv: backend %q factory returned a nil endpoint", name)
	}
	return llm, nil
}

// Backends lists the registered backend names, sorted and distinct
// (the registry is a map, so each name appears exactly once).
// Scheme-resolved names ("remote:<addr>") appear only once registered
// concretely (see RegisterRemoteBackend), since a scheme denotes an
// open-ended family.
func Backends() []string {
	backendRegistry.RLock()
	names := make([]string, 0, len(backendRegistry.factories))
	for name := range backendRegistry.factories {
		names = append(names, name)
	}
	backendRegistry.RUnlock()
	sort.Strings(names)
	return names
}

// registerConcrete registers factory under name unless name is
// taken: the idempotent registration front-ends call from flag
// handling, where re-registration must not panic.
func registerConcrete(name string, factory BackendFactory) {
	backendRegistry.Lock()
	defer backendRegistry.Unlock()
	if _, ok := backendRegistry.factories[name]; !ok {
		backendRegistry.factories[name] = factory
	}
}

// dialRemote resolves a daemon address for RegisterRemoteBackend and
// the "remote" scheme alike: one address gets its own client, a
// comma-separated replica list the memoised fleet Router over it.
func dialRemote(addr string) (string, judge.LLM, error) {
	if !strings.Contains(addr, ",") {
		return "remote:" + addr, remote.New(addr), nil
	}
	rt, err := fleetRouter(addr)
	if err != nil {
		return "", nil, fmt.Errorf("llm4vv: replica list %q: %w", addr, err)
	}
	return "fleet:" + strings.Join(rt.Addrs(), ","), rt, nil
}

// RegisterRemoteBackend concretely registers the judging daemon at
// addr under the name "remote:<addr>" (a replica list: its fleet
// Router, "fleet:<list>") and returns that name. It is idempotent, for
// flag handling. Concrete registration is what admits a daemon into
// Backends() and therefore into the cross-backend compare sweep;
// ad-hoc "remote:<addr>" names resolve through the scheme registry
// without it.
//
// The seed passed at construction is inert for remote endpoints: the
// daemon's backend and seed are fixed when it starts, so experiments
// needing a particular seed must run against a daemon started with
// it.
func RegisterRemoteBackend(addr string) (string, error) {
	name, _, err := dialRemote(addr)
	if err != nil {
		return "", err
	}
	registerConcrete(name, func(uint64) judge.LLM {
		_, llm, _ := dialRemote(addr)
		return llm
	})
	return name, nil
}

// fleetRouters memoizes one Router per canonical address list: a
// Router owns a background health loop, so every spelling of one fleet
// must share the instance rather than leak a second watcher.
var fleetRouters = struct {
	sync.Mutex
	routers map[string]*fleet.Router
}{routers: map[string]*fleet.Router{}}

func fleetRouter(addrs string) (*fleet.Router, error) {
	key := strings.Join(fleet.SplitAddrs(addrs), ",")
	fleetRouters.Lock()
	defer fleetRouters.Unlock()
	if rt, ok := fleetRouters.routers[key]; ok {
		return rt, nil
	}
	rt, err := fleet.Dial(key)
	if err != nil {
		return nil, err
	}
	fleetRouters.routers[key] = rt
	return rt, nil
}

// RegisterFleetBackend concretely registers the judge fleet behind the
// comma-separated daemon address list under the name "fleet:<addrs>"
// and returns that name. Like RegisterRemoteBackend it is idempotent
// and exists for flag handling; concrete registration admits the
// fleet into Backends() and the compare sweep. The constructed router
// hashes each prompt onto its owning replica, fails over on replica
// death, and — replicas of one fleet serving the same backend and
// seed — produces reports byte-identical to a single daemon. The
// construction seed is inert, as for any remote endpoint.
func RegisterFleetBackend(addrs string) (string, error) {
	rt, err := fleetRouter(addrs)
	if err != nil {
		return "", err
	}
	name := "fleet:" + strings.Join(rt.Addrs(), ",")
	registerConcrete(name, func(uint64) judge.LLM { return rt })
	return name, nil
}

// NewPanel constructs a voting ensemble from a member spec
// ("a+b+c[:strategy]", the argument of an "ensemble:" backend name):
// each member backend is resolved through the registry — including
// "remote:<addr>" members, so a panel can seat daemons — under its
// own derived seed, so a panel of N copies of one simulated backend
// seats N distinct judges rather than one echoed three times. Member
// i of backend b derives its seed from (seed, i, b) via the
// deterministic split rng, making panel behaviour a pure function of
// the panel seed; remote members' seeds are inert as always (the
// daemon's seed governs).
//
// With the Weighted strategy the panel starts with uniform weights;
// Runner panel phases recalibrate from run-store history (see
// panelWeights).
func NewPanel(spec string, seed uint64) (*ensemble.Panel, error) {
	names, strategy, err := ensemble.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	members := make([]ensemble.Member, len(names))
	for i, n := range names {
		llm, err := NewBackend(n, panelMemberSeed(seed, i, n))
		if err != nil {
			return nil, fmt.Errorf("llm4vv: ensemble member %d: %w", i, err)
		}
		members[i] = ensemble.Member{Name: fmt.Sprintf("%s#%d", n, i), LLM: llm}
	}
	return ensemble.New(ensemble.Config{Members: members, Strategy: strategy})
}

// panelMemberSeed derives member i's sampling seed from the panel
// seed. The rng split keys on both the index and the backend name, so
// reordering or renaming members changes their streams while equal
// specs reproduce equal panels.
func panelMemberSeed(seed uint64, i int, name string) uint64 {
	return rng.New(seed).Split(fmt.Sprintf("panel-member/%d/%s", i, name)).Uint64()
}

// RegisterEnsembleBackend concretely registers the panel described by
// spec ("a+b+c[:strategy]") under the name "ensemble:<spec>" and
// returns that name. Like RegisterRemoteBackend it is idempotent —
// front-ends call it from flag handling — and concrete registration
// is what admits a panel into Backends() and therefore into the
// cross-backend compare sweep, where it is scored like any single
// judge. The spec is validated here — member names resolved included,
// so register members before their ensemble — and a typo fails at
// flag time with the member's own error, not mid-sweep as a generic
// nil-endpoint failure.
func RegisterEnsembleBackend(spec string) (string, error) {
	if _, err := NewPanel(spec, DefaultModelSeed); err != nil {
		return "", err
	}
	name := "ensemble:" + spec
	registerConcrete(name, func(seed uint64) judge.LLM {
		p, err := NewPanel(spec, seed)
		if err != nil {
			return nil
		}
		return p
	})
	return name, nil
}

func init() {
	RegisterBackend(DefaultBackend, func(seed uint64) judge.LLM { return model.New(seed) })
	RegisterBackendScheme("remote", func(addr string, seed uint64) judge.LLM {
		_, llm, _ := dialRemote(addr)
		return llm
	})
	// "fleet:addr1,addr2,..." routes prompts across a replica set by
	// consistent hashing with health-aware failover (internal/fleet).
	RegisterBackendScheme("fleet", func(addrs string, seed uint64) judge.LLM {
		rt, err := fleetRouter(addrs)
		if err != nil {
			return nil
		}
		return rt
	})
	// "ensemble:a+b+c[:strategy]" composes registered backends into a
	// voting panel; the scheme contract reports construction failures
	// as a nil endpoint, which NewBackend turns into an error (use
	// NewPanel or RegisterEnsembleBackend for the detailed message).
	RegisterBackendScheme("ensemble", func(spec string, seed uint64) judge.LLM {
		p, err := NewPanel(spec, seed)
		if err != nil {
			return nil
		}
		return p
	})
}

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

// NewBackend constructs the named endpoint with the given seed.
// Registered names resolve first. Three prefixes then name endpoints
// that need no registration:
//
//   - "remote:ADDR" is the judging daemon or router at ADDR; a
//     comma-separated replica list routes through the fleet Router,
//     exactly as "fleet:ADDR,..." does;
//   - "fleet:ADDR,..." is a fleet Router freshly dialled over those
//     replicas;
//   - "ensemble:SPEC" is the voting panel NewPanel(SPEC, seed).
//
// The caller owns the result and closes it, when it has a Close
// method, once done: a fleet Router runs a health loop until its
// Close, and a panel's Close closes its members. The seed is inert for remote and
// fleet endpoints: a daemon's backend and seed are fixed when it
// starts, so experiments needing a particular seed must run against a
// daemon started with it. Unknown names and failed constructions are
// errors, not panics, because names arrive from flags and requests at
// runtime.
func NewBackend(name string, seed uint64) (judge.LLM, error) {
	_, llm, err := resolveBackend(name, seed)
	return llm, err
}

// resolveBackend is NewBackend that also returns the name's canonical
// spelling, the one NewRunner keys store records by: a replica list
// under either prefix is "fleet:" plus its trimmed, non-empty entries
// joined by commas, and every other name is its own canonical form.
func resolveBackend(name string, seed uint64) (string, judge.LLM, error) {
	backendRegistry.RLock()
	factory, ok := backendRegistry.factories[name]
	backendRegistry.RUnlock()
	if ok {
		if llm := factory(seed); llm != nil {
			return name, llm, nil
		}
		return "", nil, fmt.Errorf("llm4vv: backend %q factory returned a nil endpoint", name)
	}
	switch prefix, arg := backendPrefix(name); prefix {
	case "remote":
		if !strings.Contains(arg, ",") {
			return name, remote.New(arg), nil
		}
		fallthrough
	case "fleet":
		rt, err := fleet.Dial(strings.Join(fleet.SplitAddrs(arg), ","))
		if err != nil {
			return "", nil, fmt.Errorf("llm4vv: replica list %q: %w", arg, err)
		}
		return "fleet:" + strings.Join(rt.Addrs(), ","), rt, nil
	case "ensemble":
		p, err := NewPanel(arg, seed)
		if err != nil {
			return "", nil, err
		}
		return name, p, nil
	}
	return "", nil, fmt.Errorf("llm4vv: unknown backend %q (registered: %v)", name, Backends())
}

// backendPrefix splits a "remote:", "fleet:" or "ensemble:" backend
// name into its prefix and argument; any other name has prefix "".
func backendPrefix(name string) (prefix, arg string) {
	prefix, arg, _ = strings.Cut(name, ":")
	switch prefix {
	case "remote", "fleet", "ensemble":
		return prefix, arg
	}
	return "", ""
}

// Backends lists the registered backend names, sorted and distinct
// (the registry is a map, so each name appears exactly once).
// Prefixed names ("remote:<addr>", "fleet:<list>", "ensemble:<spec>")
// resolve without registration and are not listed; the compare sweep
// adds the Runner's own backend to this list.
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

// NewPanel constructs a voting ensemble from a member spec
// ("a+b+c[:strategy]", the argument of an "ensemble:" backend name):
// each member backend is resolved through NewBackend — including
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
	members := make([]ensemble.Member, 0, len(names))
	for i, n := range names {
		llm, err := NewBackend(n, panelMemberSeed(seed, i, n))
		if err != nil {
			for _, m := range members {
				closeEndpoint(m.LLM)
			}
			return nil, fmt.Errorf("llm4vv: ensemble member %d: %w", i, err)
		}
		members = append(members, ensemble.Member{Name: fmt.Sprintf("%s#%d", n, i), LLM: llm})
	}
	return ensemble.New(ensemble.Config{Members: members, Strategy: strategy})
}

// closeEndpoint releases an endpoint NewBackend built: a fleet
// Router's health loop, or a panel's members. Endpoints without a
// Close method hold nothing to release.
func closeEndpoint(llm judge.LLM) {
	if c, ok := llm.(interface{ Close() }); ok {
		c.Close()
	}
}

// panelMemberSeed derives member i's sampling seed from the panel
// seed. The rng split keys on both the index and the backend name, so
// reordering or renaming members changes their streams while equal
// specs reproduce equal panels.
func panelMemberSeed(seed uint64, i int, name string) uint64 {
	return rng.New(seed).Split(fmt.Sprintf("panel-member/%d/%s", i, name)).Uint64()
}

func init() {
	RegisterBackend(DefaultBackend, func(seed uint64) judge.LLM { return model.New(seed) })
}

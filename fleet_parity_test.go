package llm4vv

// Tests for the fleet tier seen from the public API: an experiment
// swept through a consistent-hash router over several in-process
// daemons — all serving the default backend and seed — must reproduce
// the in-process report byte for byte, including when one replica is
// killed mid-sweep. Placement is invisible in the results by design;
// the fleet is a throughput device, not a semantic one.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/spec"
)

// startFleetReplica boots one in-process daemon over the default
// backend and seed, optionally behind a wrapper, and returns its
// host:port.
func startFleetReplica(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{LLM: llm, Backend: DefaultBackend, Seed: DefaultModelSeed})
	t.Cleanup(srv.Close)
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestExperimentViaFleetParity: a part1 sweep routed across three
// replicas by the fleet backend returns the same report as in-process,
// and the prompts genuinely spread over the ring.
func TestExperimentViaFleetParity(t *testing.T) {
	addrs := startFleetReplica(t, nil) + "," + startFleetReplica(t, nil) + "," + startFleetReplica(t, nil)
	params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 8}

	local := newTestRunner(t)
	lres, err := RunExperiment(context.Background(), local, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewRunner(WithBackend("fleet:" + addrs))
	if err != nil {
		t.Fatal(err)
	}
	fres, err := RunExperiment(context.Background(), fr, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Report() != fres.Report() {
		t.Errorf("part1 report diverged through the fleet:\n--- local ---\n%s\n--- fleet ---\n%s",
			lres.Report(), fres.Report())
	}

	rt, err := fleetRouter(addrs)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	var total int64
	for _, st := range rt.Replicas() {
		if st.Prompts > 0 {
			served++
		}
		total += st.Prompts
	}
	if served < 2 {
		t.Errorf("fleet sweep used %d of 3 replicas; ring not splitting", served)
	}
	if total == 0 {
		t.Error("fleet sweep routed zero prompts")
	}
}

// TestFleetReplicaKillMidSweep is the failover acceptance check: one
// of three replicas dies after serving its first shard, the sweep
// completes with every verdict intact, and the report stays
// byte-identical to in-process. The dead replica keeps answering
// health probes here, so it stays in the ring and every later shard
// that hashes to it exercises the request-path failover rather than a
// quiet eviction. A replica list given as a daemon address (the
// -serve-addr path) must fail over through the same fleet Router.
func TestFleetReplicaKillMidSweep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T, addrs string) string
	}{
		{"fleet scheme", func(t *testing.T, addrs string) string { return "fleet:" + addrs }},
		{"remote list", func(t *testing.T, addrs string) string {
			name, err := RegisterRemoteBackend(addrs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				backendRegistry.Lock()
				delete(backendRegistry.factories, name)
				backendRegistry.Unlock()
			})
			if name != "fleet:"+addrs {
				t.Fatalf("RegisterRemoteBackend(%q) = %q, want the fleet router's name", addrs, name)
			}
			return name
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var completions, afterKill atomic.Int64
			kill := func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/v1/complete") {
						if completions.Add(1) > 1 {
							afterKill.Add(1)
							http.Error(w, "replica killed mid-sweep", http.StatusServiceUnavailable)
							return
						}
					}
					h.ServeHTTP(w, r)
				})
			}
			addrs := startFleetReplica(t, kill) + "," + startFleetReplica(t, nil) + "," + startFleetReplica(t, nil)
			params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 16}
			// Small shards split the sweep into many routed batches, so the
			// kill lands mid-run with later shards still owed to the victim.
			opts := []Option{judgeBatch(2)}

			local, err := NewRunner(opts...)
			if err != nil {
				t.Fatal(err)
			}
			lres, err := RunExperiment(context.Background(), local, "part1", params)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := NewRunner(append(opts, WithBackend(tc.backend(t, addrs)))...)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := RunExperiment(context.Background(), fr, "part1", params)
			if err != nil {
				t.Fatalf("sweep failed after replica kill: %v", err)
			}
			if lres.Report() != fres.Report() {
				t.Errorf("report diverged after replica kill:\n--- local ---\n%s\n--- fleet ---\n%s",
					lres.Report(), fres.Report())
			}
			if completions.Load() == 0 {
				t.Error("killed replica never saw a request; kill did not land mid-sweep")
			}
			if afterKill.Load() == 0 {
				t.Fatal("no request reached the killed replica after the kill")
			}
			rt, err := fleetRouter(addrs)
			if err != nil {
				t.Fatal(err)
			}
			if rt.Stats().Failovers == 0 {
				t.Error("requests hit the dead replica but no failovers were recorded")
			}
		})
	}
}

// TestFleetSpellingsShareOneRouter: spellings of one address list that
// differ only in spaces and empty entries resolve to one Router and
// one registry name, so a fleet runs one health loop and joins a
// compare sweep once.
func TestFleetSpellingsShareOneRouter(t *testing.T) {
	a, b := startFleetReplica(t, nil), startFleetReplica(t, nil)
	want := "fleet:" + a + "," + b
	defer func() {
		backendRegistry.Lock()
		delete(backendRegistry.factories, want)
		backendRegistry.Unlock()
	}()
	var first *fleet.Router
	for _, list := range []string{a + "," + b, a + ", " + b, a + "," + b + ",", " " + a + ",," + b} {
		name, err := RegisterFleetBackend(list)
		if err != nil {
			t.Fatal(err)
		}
		if name != want {
			t.Errorf("RegisterFleetBackend(%q) = %q, want %q", list, name, want)
		}
		if name, err = RegisterRemoteBackend(list); err != nil || name != want {
			t.Errorf("RegisterRemoteBackend(%q) = %q, %v, want %q", list, name, err, want)
		}
		rt, err := fleetRouter(list)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rt
		} else if rt != first {
			t.Errorf("fleetRouter(%q) started a second Router for one fleet", list)
		}
	}
}

// TestRegisterFleetBackendIdempotent mirrors the remote variant: the
// name is stable, appears once in Backends(), and scheme-resolved
// fleet names never leak into the registry uninvited.
func TestRegisterFleetBackendIdempotent(t *testing.T) {
	addrs := startFleetReplica(t, nil) + "," + startFleetReplica(t, nil)
	a, err := RegisterFleetBackend(addrs)
	if err != nil {
		t.Fatal(err)
	}
	// White-box cleanup: drop the registration so later compare sweeps
	// do not dial the torn-down test replicas.
	defer func() {
		backendRegistry.Lock()
		delete(backendRegistry.factories, a)
		backendRegistry.Unlock()
	}()
	b, err := RegisterFleetBackend(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != "fleet:"+addrs {
		t.Fatalf("RegisterFleetBackend returned %q then %q", a, b)
	}
	count := 0
	for _, name := range Backends() {
		if name == a {
			count++
		}
	}
	if count != 1 {
		t.Errorf("backend %q registered %d times", a, count)
	}
	llm, err := NewBackend(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if llm == nil {
		t.Fatal("fleet backend resolved to a nil endpoint")
	}
	if _, err := RegisterFleetBackend(" ,, "); err == nil {
		t.Error("blank fleet address list accepted")
	}
}

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
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/judge"
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
		{"remote list", func(t *testing.T, addrs string) string { return "remote:" + addrs }},
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
			if fr.backend != "fleet:"+addrs {
				t.Fatalf("Runner backend %q, want the fleet router's name", fr.backend)
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
// differ only in prefix, spaces and empty entries resolve through
// NewBackend to one Router, so a fleet runs one health loop.
func TestFleetSpellingsShareOneRouter(t *testing.T) {
	a, b := startFleetReplica(t, nil), startFleetReplica(t, nil)
	var first judge.LLM
	for _, list := range []string{a + "," + b, a + ", " + b, a + "," + b + ",", " " + a + ",," + b} {
		for _, prefix := range []string{"fleet:", "remote:"} {
			llm, err := NewBackend(prefix+list, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := llm.(*fleet.Router); !ok {
				t.Fatalf("NewBackend(%q) = %T, want *fleet.Router", prefix+list, llm)
			}
			if first == nil {
				first = llm
			} else if llm != first {
				t.Errorf("NewBackend(%q) started a second Router for one fleet", prefix+list)
			}
		}
	}
}

// TestFleetResumeAcrossSpellings: NewRunner keys store records by the
// canonical fleet name, so a run stored under "remote:A, B" is resumed
// in full by a run under "fleet:A,B" — no prompt reaches a replica.
func TestFleetResumeAcrossSpellings(t *testing.T) {
	var requests atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/complete") {
				requests.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	a, b := startFleetReplica(t, count), startFleetReplica(t, count)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	suite := PartOneSpec(spec.OpenACC).Scaled(16)

	first := mustRunner(t, WithBackend("remote:"+a+", "+b), WithStore(path))
	sum1, err := first.DirectProbing(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	sent := requests.Load()
	if sent == 0 {
		t.Fatal("first run never reached a replica")
	}

	resumed := mustRunner(t, WithBackend("fleet:"+a+","+b), WithStore(path), WithResume(true))
	sum2, err := resumed.DirectProbing(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if got := requests.Load() - sent; got != 0 {
		t.Errorf("resumed run sent %d endpoint requests, want 0", got)
	}
	if sum1 != sum2 {
		t.Errorf("resumed metrics diverged:\n %+v\n %+v", sum1, sum2)
	}
}

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
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/leakcheck"
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
// and the prompts genuinely spread over the replicas.
func TestExperimentViaFleetParity(t *testing.T) {
	addrs := startFleetReplica(t, nil) + "," + startFleetReplica(t, nil) + "," + startFleetReplica(t, nil)
	params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 8}

	local := newTestRunner(t)
	lres, err := RunExperiment(context.Background(), local, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	fr := mustRunner(t, WithBackend("fleet:"+addrs))
	t.Cleanup(func() { fr.Close() })
	fres, err := RunExperiment(context.Background(), fr, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Report() != fres.Report() {
		t.Errorf("part1 report diverged through the fleet:\n--- local ---\n%s\n--- fleet ---\n%s",
			lres.Report(), fres.Report())
	}

	served := 0
	var total int64
	for _, st := range fr.llm.(*fleet.Router).Replicas() {
		if st.Prompts > 0 {
			served++
		}
		total += st.Prompts
	}
	if served < 2 {
		t.Errorf("fleet sweep used %d of 3 replicas; placement not splitting", served)
	}
	if total == 0 {
		t.Error("fleet sweep routed zero prompts")
	}
}

// TestFleetReplicaKillMidSweep is the failover acceptance check: one
// of three replicas dies after serving its first shard, the sweep
// completes with every verdict intact, and the report stays
// byte-identical to in-process. The dead replica keeps answering
// health probes here, so it stays healthy and every later shard
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
			fr := mustRunner(t, append(opts, WithBackend(tc.backend(t, addrs)))...)
			t.Cleanup(func() { fr.Close() })
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
			if fr.llm.(*fleet.Router).Stats().Failovers == 0 {
				t.Error("requests hit the dead replica but no failovers were recorded")
			}
		})
	}
}

// TestFleetSpellingsShareOneRouter: spellings of one address list that
// differ only in prefix, spaces and empty entries give a Runner keyed
// by the one canonical fleet name, and every experiment that Runner
// runs goes through the one Router it dialled over that list, which its
// Close releases.
func TestFleetSpellingsShareOneRouter(t *testing.T) {
	a, b := startFleetReplica(t, nil), startFleetReplica(t, nil)
	canonical := "fleet:" + a + "," + b
	for _, list := range []string{a + "," + b, a + ", " + b, a + "," + b + ",", " " + a + ",," + b} {
		for _, prefix := range []string{"fleet:", "remote:"} {
			r := mustRunner(t, WithBackend(prefix+list))
			if r.backend != canonical {
				t.Errorf("NewRunner(WithBackend(%q)) keeps %q, want %q", prefix+list, r.backend, canonical)
			}
			rt, ok := r.llm.(*fleet.Router)
			if !ok {
				r.Close()
				t.Fatalf("%q resolved to %T, want *fleet.Router", prefix+list, r.llm)
			}
			var addrs []string
			for _, st := range rt.Replicas() {
				addrs = append(addrs, st.Addr)
			}
			if got := strings.Join(addrs, ","); got != a+","+b {
				t.Errorf("%q dialled replicas %q, want %q", prefix+list, got, a+","+b)
			}
			routed := rt.Stats().RoutedPrompts
			for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
				if _, err := r.DirectProbing(context.Background(), PartOneSpec(d).Scaled(8)); err != nil {
					r.Close()
					t.Fatal(err)
				}
				if r.llm != judge.LLM(rt) {
					t.Errorf("%q: the %v experiment replaced the Runner's Router", prefix+list, d)
				}
				if n := rt.Stats().RoutedPrompts; n <= routed {
					t.Errorf("%q: the %v experiment routed no prompt through the Runner's Router", prefix+list, d)
				} else {
					routed = n
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRunnerCloseReleasesFleet: a Runner owns the fleet Router it
// dials, so closing it stops the Router's health loop. Twenty Runners
// on one-replica fleets, each closed along with its daemon, leave the
// goroutine count where it started.
func TestRunnerCloseReleasesFleet(t *testing.T) {
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	suite := PartOneSpec(spec.OpenACC).Scaled(64)
	start := runtime.NumGoroutine()
	for range 20 {
		srv := server.New(server.Config{LLM: llm, Backend: DefaultBackend, Seed: DefaultModelSeed})
		ts := httptest.NewServer(srv.Handler())
		r := mustRunner(t, WithBackend("fleet:"+strings.TrimPrefix(ts.URL, "http://")))
		if _, err := r.DirectProbing(context.Background(), suite); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		srv.Close()
	}
	if n := leakcheck.Settle(start, time.Second); n > start {
		t.Errorf("%d goroutines after closing 20 fleet Runners, %d before", n, start)
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

package llm4vv

// Tests for the judge-as-a-service layer seen from the public API: a
// daemon booted in-process fronts the simulated backend, is named
// "remote:<addr>" without registration, and every experiment —
// including the cross-backend compare sweep — reproduces
// byte-identical metrics through it.
//
// Also here: backend name resolution — registered names, the
// remote:, fleet: and ensemble: prefixes and their canonical
// spellings, and the error paths: duplicate and empty registrations
// panic, nil-producing factories and unknown names error, Backends()
// stays sorted and distinct.

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/remote"
	"repro/internal/spec"
)

// TestCompareViaRemoteParity is the acceptance check for the service:
// the compare experiment, dispatched on a Runner aimed at the
// unregistered daemon, sweeps both the in-process backend and the
// daemon fronting the same backend and seed, and their accuracy/bias
// metrics must be byte-identical.
func TestCompareViaRemoteParity(t *testing.T) {
	var requests atomic.Int64
	remoteName := "remote:" + startFleetReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/complete") {
				requests.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	r := mustRunner(t, WithBackend(remoteName))
	res, err := RunExperiment(context.Background(), r, "compare",
		ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC, spec.OpenMP}, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	cmp := res.(*CompareScenarioResult)
	for _, d := range cmp.Dialects {
		local, ok := cmp.Summaries[DefaultBackend][d]
		if !ok {
			t.Fatalf("compare missing in-process backend for %v", d)
		}
		viaDaemon, ok := cmp.Summaries[remoteName][d]
		if !ok {
			t.Fatalf("compare missing remote backend %q for %v", remoteName, d)
		}
		if local != viaDaemon {
			t.Errorf("%v metrics diverged through the daemon:\nlocal:  %+v\nremote: %+v", d, local, viaDaemon)
		}
		if local.Total == 0 {
			t.Errorf("%v compare judged zero files", d)
		}
	}
	if requests.Load() == 0 {
		t.Error("compare sweep never reached the daemon")
	}
}

// TestExperimentViaRemoteParity: a full experiment dispatched against
// the remote backend returns the same report as in-process.
func TestExperimentViaRemoteParity(t *testing.T) {
	remoteName := "remote:" + startFleetReplica(t, nil)
	params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 8}

	local := newTestRunner(t)
	lres, err := RunExperiment(context.Background(), local, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRunner(WithBackend(remoteName))
	if err != nil {
		t.Fatal(err)
	}
	rres, err := RunExperiment(context.Background(), rr, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Report() != rres.Report() {
		t.Errorf("part1 report diverged through the daemon:\n--- local ---\n%s\n--- remote ---\n%s",
			lres.Report(), rres.Report())
	}
}

func newTestRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegisterBackendDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterBackend did not panic")
		}
	}()
	RegisterBackend(DefaultBackend, func(seed uint64) judge.LLM { return model.New(seed) })
}

func TestRegisterBackendEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty-name RegisterBackend did not panic")
		}
	}()
	RegisterBackend("", func(seed uint64) judge.LLM { return model.New(seed) })
}

func TestRegisterBackendNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil-factory RegisterBackend did not panic")
		}
	}()
	RegisterBackend("never-registered", nil)
}

// TestNewBackendNilProducingFactory: a factory that returns a nil
// endpoint is surfaced as an error by NewBackend, not a downstream
// nil dereference. White-box: the broken factory is spliced in and
// removed around the check so no other test sees it.
func TestNewBackendNilProducingFactory(t *testing.T) {
	const name = "test-nil-endpoint"
	backendRegistry.Lock()
	backendRegistry.factories[name] = func(seed uint64) judge.LLM { return nil }
	backendRegistry.Unlock()
	defer func() {
		backendRegistry.Lock()
		delete(backendRegistry.factories, name)
		backendRegistry.Unlock()
	}()
	if _, err := NewBackend(name, 1); err == nil {
		t.Fatal("NewBackend returned a nil endpoint without error")
	} else if !strings.Contains(err.Error(), name) {
		t.Errorf("error %q does not name the broken backend", err)
	}
	if _, err := NewRunner(WithBackend(name)); err == nil {
		t.Fatal("NewRunner accepted a nil-producing backend")
	}
}

// TestNewBackendNames: every way of naming a backend resolves through
// NewBackend alone, NewRunner keeps the canonical spelling, and every
// failure names its cause. Every spelling of one replica list, under
// either prefix, resolves to a fleet Router named by the one
// canonical list that store records are keyed by
// (TestFleetResumeAcrossSpellings pins that they share them). Replica
// lists run on live in-process daemons, since a fleet Router probes
// its replicas; each resolves to a Router of its own, which the test
// closes.
func TestNewBackendNames(t *testing.T) {
	a, b := startFleetReplica(t, nil), startFleetReplica(t, nil)
	fleetName := "fleet:" + a + "," + b
	members := DefaultBackend + "+" + DefaultBackend
	for _, tc := range []struct {
		name, canonical string
		check           func(t *testing.T, llm judge.LLM)
		errHas          string
	}{
		{name: DefaultBackend, canonical: DefaultBackend},
		{name: "remote:127.0.0.1:1", canonical: "remote:127.0.0.1:1", check: func(t *testing.T, llm judge.LLM) {
			// Construction is offline: nothing dials until judging.
			if _, ok := llm.(*remote.Backend); !ok {
				t.Errorf("got %T, want *remote.Backend", llm)
			}
			if _, ok := llm.(judge.BatchLLM); !ok {
				t.Error("remote endpoint does not implement judge.BatchLLM")
			}
			if _, ok := llm.(judge.ContextLLM); !ok {
				t.Error("remote endpoint does not implement judge.ContextLLM")
			}
		}},
		{name: "remote:" + a + "," + b, canonical: fleetName},
		{name: "remote:" + a + ", " + b, canonical: fleetName},
		{name: "remote:" + a + "," + b + ",", canonical: fleetName},
		{name: "remote: " + a + ",," + b, canonical: fleetName},
		{name: fleetName, canonical: fleetName},
		{name: "fleet:" + a + ", " + b, canonical: fleetName},
		{name: "fleet:" + a + ",," + b + ",", canonical: fleetName},
		{name: "fleet: " + a + " ,\t" + b, canonical: fleetName},
		{name: "ensemble:" + members, canonical: "ensemble:" + members, check: func(t *testing.T, llm judge.LLM) {
			if _, ok := llm.(*ensemble.Panel); !ok {
				t.Errorf("got %T, want *ensemble.Panel", llm)
			}
		}},
		{name: "nosuchscheme:arg", errHas: "unknown backend"},
		{name: "no-such-backend", errHas: "unknown backend"},
		{name: "fleet: , ", errHas: "no replicas configured"},
		{name: "remote: , ", errHas: "no replicas configured"},
		{name: "fleet:" + a + "," + a, errHas: "replica " + a + " configured twice"},
		{name: "ensemble:" + DefaultBackend + "+no-such-member", errHas: "no-such-member"},
	} {
		llm, err := NewBackend(tc.name, 1)
		r, rerr := NewRunner(WithBackend(tc.name))
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("NewBackend(%q) error = %v, want one naming %q", tc.name, err, tc.errHas)
			}
			if rerr == nil {
				t.Errorf("NewRunner accepted backend %q", tc.name)
			}
			continue
		}
		if err != nil || rerr != nil {
			t.Fatalf("%q: NewBackend: %v; NewRunner: %v", tc.name, err, rerr)
		}
		closeEndpoint(llm)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if r.backend != tc.canonical {
			t.Errorf("NewRunner(WithBackend(%q)) keeps %q, want %q", tc.name, r.backend, tc.canonical)
		}
		if _, ok := llm.(*fleet.Router); ok != (tc.canonical == fleetName) {
			t.Errorf("%q resolved to %T", tc.name, llm)
		}
		if tc.check != nil {
			tc.check(t, llm)
		}
	}
	// Prefixed names resolve without registration and never join it.
	for _, name := range Backends() {
		if prefix, _ := backendPrefix(name); prefix != "" {
			t.Errorf("prefixed name %q leaked into Backends()", name)
		}
	}
}

func TestBackendsSortedAndDistinct(t *testing.T) {
	names := Backends()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Backends() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("Backends() contains %q twice", n)
		}
		seen[n] = true
	}
}

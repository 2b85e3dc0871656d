package llm4vv

// Tests for the judge-as-a-service layer seen from the public API: a
// daemon booted in-process fronts the simulated backend, registers as
// "remote:<addr>", and every experiment — including the cross-backend
// compare sweep — reproduces byte-identical metrics through it. The
// daemon lives for the whole test binary (the registry has no
// unregister), so later compare sweeps legitimately include it.
//
// Also here: the registry error paths added with the service —
// duplicate and empty registrations panic, nil-producing factories
// and unknown schemes error, Backends() stays sorted and distinct.

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/spec"
)

// testDaemon boots one shared in-process judging daemon over the
// default backend and seed, and registers it concretely so it joins
// Backends() and the compare sweep. It stays up for the process
// lifetime by design.
var testDaemon struct {
	once sync.Once
	name string
	srv  *server.Server
}

func remoteBackendName(t *testing.T) string {
	t.Helper()
	testDaemon.once.Do(func() {
		llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
		if err != nil {
			t.Fatal(err)
		}
		testDaemon.srv = server.New(server.Config{
			LLM:     llm,
			Backend: DefaultBackend,
			Seed:    DefaultModelSeed,
		})
		ts := httptest.NewServer(testDaemon.srv.Handler())
		testDaemon.name, err = RegisterRemoteBackend(strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
	})
	return testDaemon.name
}

// TestCompareViaRemoteParity is the acceptance check for the service:
// the compare experiment sweeps both the in-process backend and the
// daemon fronting the same backend and seed, and their accuracy/bias
// metrics must be byte-identical.
func TestCompareViaRemoteParity(t *testing.T) {
	remoteName := remoteBackendName(t)
	r := newTestRunner(t)
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
	if st := testDaemon.srv.Stats(); st.BatchRequests == 0 && st.Requests == 0 {
		t.Error("compare sweep never reached the daemon")
	}
}

// TestExperimentViaRemoteParity: a full experiment dispatched against
// the remote backend returns the same report as in-process.
func TestExperimentViaRemoteParity(t *testing.T) {
	remoteName := remoteBackendName(t)
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

func TestBackendSchemeResolution(t *testing.T) {
	// The remote scheme resolves unregistered addresses (construction
	// is offline; nothing dials until judging starts).
	llm, err := NewBackend("remote:127.0.0.1:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if llm == nil {
		t.Fatal("remote scheme produced nil endpoint")
	}
	if _, ok := llm.(judge.BatchLLM); !ok {
		t.Error("remote endpoint does not implement judge.BatchLLM")
	}
	if _, ok := llm.(judge.ContextLLM); !ok {
		t.Error("remote endpoint does not implement judge.ContextLLM")
	}
	// Unknown schemes and unknown plain names both error.
	if _, err := NewBackend("nosuchscheme:arg", 1); err == nil {
		t.Error("unknown scheme resolved")
	}
	// Scheme-resolved names do not appear in Backends() until
	// registered concretely.
	for _, name := range Backends() {
		if name == "remote:127.0.0.1:1" {
			t.Error("ad-hoc scheme name leaked into Backends()")
		}
	}
}

// TestRegisterRemoteBackendIdempotent: one address registers as
// "remote:<addr>", a replica list as its fleet Router's canonical
// "fleet:<list>"; either way the name is stable and appears once in
// Backends(), and a list naming no address is refused.
func TestRegisterRemoteBackendIdempotent(t *testing.T) {
	replicas := startFleetReplica(t, nil) + "," + startFleetReplica(t, nil)
	for _, tc := range []struct{ addr, want string }{
		{"192.0.2.9:7777", "remote:192.0.2.9:7777"},
		{strings.ReplaceAll(replicas, ",", ", "), "fleet:" + replicas},
	} {
		a, err := RegisterRemoteBackend(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		// White-box cleanup: the test addresses must not stay
		// registered, or later compare sweeps would dial them.
		defer func() {
			backendRegistry.Lock()
			delete(backendRegistry.factories, a)
			backendRegistry.Unlock()
		}()
		b, err := RegisterRemoteBackend(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || a != tc.want {
			t.Fatalf("RegisterRemoteBackend(%q) returned %q then %q, want %q", tc.addr, a, b, tc.want)
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
	}
	if _, err := RegisterRemoteBackend(" , "); err == nil {
		t.Error("address list naming no address accepted")
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

package llm4vv

// The chaos suite: experiments swept through a deliberately faulty
// fleet — flapping health probes, injected 5xx and connection resets,
// a torn response body — must produce reports byte-identical to a
// fault-free run. Fault schedules are seeded and deterministic
// (internal/fault), so a failing leg replays exactly. These tests are
// the degradation guarantees of DESIGN.md §15, CI-gated by the chaos
// job.

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/ensemble"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/remote"
	"repro/internal/spec"
)

// registerChaosBackend registers an already-built endpoint under a
// unique test-local name and removes it again at cleanup so later
// sweeps (the compare scenario iterates every registered backend)
// never dial torn-down test fixtures.
func registerChaosBackend(t *testing.T, name string, llm judge.LLM) {
	t.Helper()
	RegisterBackend(name, func(seed uint64) judge.LLM { return llm })
	t.Cleanup(func() {
		backendRegistry.Lock()
		delete(backendRegistry.factories, name)
		backendRegistry.Unlock()
	})
}

// chaosRouter builds a fleet Router whose replica clients send every
// request through inj's "remote.send" transport point and whose
// health probes consult "fleet.probe:<addr>".
func chaosRouter(t *testing.T, inj *fault.Injector, addrs []string) *fleet.Router {
	t.Helper()
	replicas := make([]fleet.Replica, len(addrs))
	for i, a := range addrs {
		replicas[i] = fleet.Replica{Addr: a, Client: remote.New(a,
			remote.WithRetries(3),
			remote.WithBackoff(time.Millisecond),
			remote.WithHTTPClient(&http.Client{Transport: fault.Transport(inj, "remote.send", nil)}),
		)}
	}
	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:        replicas,
		HealthInterval:  20 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
		Fault:           inj,
		Logger:          slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestChaosFleetByteIdenticalReport is the headline degradation
// guarantee: a three-replica fleet with one replica flapping in and
// out of the fleet, ~5% of requests drawing injected 5xx and
// connection resets, and one response body torn mid-read still
// produces a report byte-identical to the fault-free in-process run.
func TestChaosFleetByteIdenticalReport(t *testing.T) {
	addrs := []string{
		startFleetReplica(t, nil),
		startFleetReplica(t, nil),
		startFleetReplica(t, nil),
	}
	inj := fault.New(1701,
		// One torn body, early in the sweep.
		&fault.Rule{Point: "remote.send", Kind: fault.Torn, Every: 5, Count: 1},
		// ~5% of sends answered with a synthesized 500, ~5% reset
		// before the request leaves the client.
		&fault.Rule{Point: "remote.send", Kind: fault.HTTP500, Rate: 0.05},
		&fault.Rule{Point: "remote.send", Kind: fault.Reset, Rate: 0.05},
		// The first replica's health probe fails every other draw: the
		// health loop evicts and readmits it for the whole sweep.
		&fault.Rule{Point: "fleet.probe:" + addrs[0], Kind: fault.Flap, Every: 2},
	)
	rt := chaosRouter(t, inj, addrs)
	const name = "chaos-fleet-byte-identical"
	registerChaosBackend(t, name, rt)

	params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 16}
	opts := []Option{judgeBatch(2)} // many routed batches → faults land mid-sweep

	local, err := NewRunner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := RunExperiment(context.Background(), local, "part1", params)
	if err != nil {
		t.Fatal(err)
	}
	cr := mustRunner(t, append(opts, WithBackend(name))...)
	t.Cleanup(func() { cr.Close() })
	cres, err := RunExperiment(context.Background(), cr, "part1", params)
	if err != nil {
		t.Fatalf("sweep failed under chaos: %v", err)
	}
	if lres.Report() != cres.Report() {
		t.Errorf("report diverged under chaos:\n--- fault-free ---\n%s\n--- chaos ---\n%s",
			lres.Report(), cres.Report())
	}
	// The run must have been genuinely chaotic: faults fired on the
	// wire (the probe flap is timing-dependent, the send faults are
	// not).
	sent := int64(0)
	for _, pc := range inj.Injected() {
		if strings.HasPrefix(pc.Point, "remote.send") {
			sent += pc.Count
		}
	}
	if sent == 0 {
		t.Error("no remote.send faults fired; the sweep was not exercised under chaos")
	}
}

// TestChaosMalformedCompletionAbsorbedByPanel: a three-member voting
// panel with one member injecting malformed completions (and the
// occasional outright error) must return the same verdicts as the
// uncorrupted panel — garbage parses to an unparsable vote, errors
// become error votes, and the majority quorum absorbs both.
func TestChaosMalformedCompletionAbsorbedByPanel(t *testing.T) {
	member := func() judge.LLM {
		llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
		if err != nil {
			t.Fatal(err)
		}
		return llm
	}
	inj := fault.New(99,
		&fault.Rule{Point: "daemon.complete", Kind: fault.Malformed, Every: 2},
		&fault.Rule{Point: "daemon.complete", Kind: fault.Err, Every: 7},
	)
	clean, err := ensemble.New(ensemble.Config{
		Members: []ensemble.Member{
			{Name: "m0", LLM: member()}, {Name: "m1", LLM: member()}, {Name: "m2", LLM: member()},
		},
		Strategy: ensemble.Majority,
		Quorum:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := ensemble.New(ensemble.Config{
		Members: []ensemble.Member{
			{Name: "m0", LLM: member()},
			{Name: "m1", LLM: fault.LLM(inj, "daemon.complete", member())},
			{Name: "m2", LLM: member()},
		},
		Strategy: ensemble.Majority,
		Quorum:   2,
	})
	if err != nil {
		t.Fatal(err)
	}

	suite, err := BuildSuite(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]string, len(suite))
	for i, pf := range suite {
		codes[i] = pf.Source
	}
	ctx := context.Background()
	judgeOver := func(llm judge.LLM) []judge.Evaluation {
		j := &judge.Judge{LLM: llm, Style: judge.Direct, Dialect: spec.OpenACC}
		evs, err := j.EvaluateBatch(ctx, codes, nil)
		if err != nil {
			t.Fatalf("panel judging failed: %v", err)
		}
		return evs
	}
	want := judgeOver(clean)
	got := judgeOver(chaos)
	for i := range want {
		if got[i].Verdict != want[i].Verdict {
			t.Errorf("file %s: verdict %v under chaos, %v clean — malformed member vote leaked into the decision",
				suite[i].Name, got[i].Verdict, want[i].Verdict)
		}
	}
	if inj.InjectedTotal() == 0 {
		t.Error("no faults fired; the corrupted member was never exercised")
	}
}

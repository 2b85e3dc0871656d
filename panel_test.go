package llm4vv

// Tests for the panel experiment: ensemble judging end to end through
// the public API — determinism, the remote-daemon parity bar, and the
// resume guarantee that a finished panel run re-judges zero files
// while reproducing its agreement metrics byte-identically.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
)

func panelParams(d ...spec.Dialect) ExperimentParams {
	return ExperimentParams{Dialects: d, Scale: 8}
}

func TestPanelExperimentDeterministic(t *testing.T) {
	run := func() string {
		r := newTestRunner(t)
		res, err := RunExperiment(context.Background(), r, "panel",
			panelParams(spec.OpenACC, spec.OpenMP))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("panel reports diverged across identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, want := range []string{"Fleiss' kappa", "Pairwise agreement matrix", "deepseek-sim#2", "strategy majority"} {
		if !strings.Contains(first, want) {
			t.Errorf("panel report missing %q", want)
		}
	}
}

// TestPanelMembersDiverge: the panel's three seats derive distinct
// member seeds, so the judges genuinely disagree somewhere — a panel
// of echoes would make every agreement metric trivially 1.
func TestPanelMembersDiverge(t *testing.T) {
	r := newTestRunner(t)
	res, err := RunExperiment(context.Background(), r, "panel", panelParams(spec.OpenACC))
	if err != nil {
		t.Fatal(err)
	}
	pr := res.(*PanelScenarioResult).Results[spec.OpenACC]
	if len(pr.Members) != 3 {
		t.Fatalf("default panel has %d members, want 3", len(pr.Members))
	}
	if pr.Agreement.Kappa >= 0.999 {
		t.Errorf("kappa = %v: member seeds did not diverge", pr.Agreement.Kappa)
	}
	if pr.Agreement.Items == 0 || pr.Panel.Total == 0 {
		t.Error("panel judged zero files")
	}
}

// TestPanelViaRemoteParity is the acceptance bar: the panel
// experiment through a daemon serving the same ensemble — or through a
// replica list of such daemons, which resolves to the fleet router —
// is byte-identical to in-process, because the daemons' responses
// carry the member votes verbatim.
func TestPanelViaRemoteParity(t *testing.T) {
	memberSpec := DefaultBackend + "+" + DefaultBackend + "+" + DefaultBackend
	local := newTestRunner(t)
	lres, err := RunExperiment(context.Background(), local, "panel", panelParams(spec.OpenACC))
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d replicas", replicas), func(t *testing.T) {
			var srvs []*server.Server
			var addrs []string
			for i := 0; i < replicas; i++ {
				panel, err := NewPanel(memberSpec, DefaultModelSeed)
				if err != nil {
					t.Fatal(err)
				}
				srv := server.New(server.Config{LLM: panel, Backend: "ensemble:" + memberSpec, Seed: DefaultModelSeed})
				t.Cleanup(srv.Close)
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				srvs = append(srvs, srv)
				addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
			}
			remoteName := "remote:" + strings.Join(addrs, ",")
			rr := mustRunner(t, WithBackend(remoteName))
			t.Cleanup(func() { rr.Close() })
			rres, err := RunExperiment(context.Background(), rr, "panel", panelParams(spec.OpenACC))
			if err != nil {
				t.Fatal(err)
			}
			if lres.Report() != rres.Report() {
				t.Errorf("panel report diverged through %s:\n--- local ---\n%s\n--- remote ---\n%s",
					remoteName, lres.Report(), rres.Report())
			}
			var prompts int64
			for _, srv := range srvs {
				prompts += srv.Stats().EndpointPrompts
			}
			if prompts == 0 {
				t.Error("remote panel run never reached a daemon's endpoint")
			}
		})
	}
}

// TestPanelRemoteSingleJudgeErrors: a daemon fronting a plain judge
// cannot supply votes; the experiment must say so, not mis-score.
func TestPanelRemoteSingleJudgeErrors(t *testing.T) {
	srv := server.New(server.Config{LLM: model.New(DefaultModelSeed), Backend: DefaultBackend, Seed: DefaultModelSeed})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r, err := NewRunner(WithBackend("remote:" + strings.TrimPrefix(ts.URL, "http://")))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunExperiment(context.Background(), r, "panel", panelParams(spec.OpenACC))
	if err == nil || !strings.Contains(err.Error(), "single-judge") {
		t.Errorf("panel over a single-judge daemon returned %v, want a single-judge error", err)
	}
}

// TestPanelCorruptStoredRecordFailsBeforeJudging: a stored panel
// record whose votes do not decode fails a resumed run naming the
// file, before a single prompt reaches any panel member.
func TestPanelCorruptStoredRecordFailsBeforeJudging(t *testing.T) {
	name, counter := registerCounting(t)
	backend := "ensemble:" + name + "+" + name + "+" + name
	path := filepath.Join(t.TempDir(), "panel.jsonl")
	s := PartOneSpec(spec.OpenACC).Scaled(8)
	suite, err := BuildSuite(s)
	if err != nil {
		t.Fatal(err)
	}
	bad := suite[len(suite)/2]
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.Record{
		Experiment: panelPhase, Backend: backend, Seed: DefaultModelSeed,
		FileHash: store.HashSource(bad.Source), Name: bad.Name,
		JudgeRan: true, Verdict: "valid", Votes: "garbage",
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustRunner(t, WithBackend(backend), WithStore(path), WithResume(true))
	defer r.Close()
	_, err = r.PanelProbing(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), bad.Name) {
		t.Fatalf("resume over a corrupt panel record returned %v, want an error naming %s", err, bad.Name)
	}
	if n := counter.n.Load(); n != 0 {
		t.Errorf("corrupt stored record let %d prompts reach the panel, want 0", n)
	}
}

// TestPanelSingleJudgeStoresNothing: when a daemon fronting a plain
// judge answers the panel, the vote parse aborts the run before the
// failing batch is stored — no panel record lands in the run store.
func TestPanelSingleJudgeStoresNothing(t *testing.T) {
	srv := server.New(server.Config{LLM: model.New(DefaultModelSeed), Backend: DefaultBackend, Seed: DefaultModelSeed})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	path := filepath.Join(t.TempDir(), "panel.jsonl")
	r := mustRunner(t, WithBackend("remote:"+strings.TrimPrefix(ts.URL, "http://")), WithStore(path))
	_, err := RunExperiment(context.Background(), r, "panel", panelParams(spec.OpenACC))
	if err == nil || !strings.Contains(err.Error(), "single-judge") {
		t.Fatalf("panel over a single-judge daemon returned %v, want a single-judge error", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	if err := st.Scan(store.Filter{Experiment: panelPhase}, func(store.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("failed panel run stored %d %s records, want 0", n, panelPhase)
	}
}

// TestPanelResumeRejudgesNothing: a finished panel run resumed under
// the same configuration loads every verdict and vote from the store
// — zero prompts reach any member — and reproduces the report
// byte-identically, agreement metrics included.
func TestPanelResumeRejudgesNothing(t *testing.T) {
	name, counter := registerCounting(t)
	path := filepath.Join(t.TempDir(), "panel.jsonl")

	run := func(resume bool) string {
		r, err := NewRunner(WithBackend(name), WithStore(path), WithResume(resume))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunExperiment(context.Background(), r, "panel", panelParams(spec.OpenACC))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	first := run(false)
	judged := counter.n.Load()
	if judged == 0 {
		t.Fatal("first panel run judged nothing")
	}
	resumed := run(true)
	if resumed != first {
		t.Errorf("resumed panel report diverged:\n--- first ---\n%s\n--- resumed ---\n%s", first, resumed)
	}
	if got := counter.n.Load(); got != judged {
		t.Errorf("resumed run re-judged: prompts grew %d -> %d", judged, got)
	}

	// The stored records carry the votes that make this possible.
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records(panelPhase, "ensemble:"+name+"+"+name+"+"+name, DefaultModelSeed)
	if len(recs) == 0 {
		t.Fatal("no panel records stored")
	}
	for _, rec := range recs {
		if _, votes, err := ensemble.DecodeVotes(rec.Votes); err != nil || len(votes) != 3 {
			t.Fatalf("stored record %s has bad votes %q: %v", rec.Name, rec.Votes, err)
		}
	}
}

// TestPanelWeightedCalibratesFromStore: under the weighted strategy a
// second run picks up calibration weights from the first run's
// stored votes — and, fully resumed, still reproduces the report.
func TestPanelWeightedCalibratesFromStore(t *testing.T) {
	name, counter := registerCounting(t)
	path := filepath.Join(t.TempDir(), "panel.jsonl")
	memberSpec := name + "+" + name + "+" + name + ":weighted"

	run := func(resume bool) string {
		r, err := NewRunner(WithBackend(name), WithPanel(memberSpec),
			WithStore(path), WithResume(resume))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunExperiment(context.Background(), r, "panel", panelParams(spec.OpenACC))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	first := run(false)
	if !strings.Contains(first, "strategy weighted") {
		t.Errorf("weighted panel did not report its strategy:\n%s", first)
	}
	judged := counter.n.Load()
	resumed := run(true)
	if resumed != first {
		t.Error("resumed weighted panel report diverged")
	}
	if got := counter.n.Load(); got != judged {
		t.Errorf("resumed weighted run re-judged: prompts grew %d -> %d", judged, got)
	}
}

package llm4vv

// The panel experiment: the Part-One suites judged by a voting
// ensemble of backends instead of a single judge, scored both as a
// judge (the panel verdict against ground truth) and as a panel
// (inter-judge agreement — Fleiss' kappa, the pairwise agreement
// matrix, and each member's bias against the consensus). Member votes
// travel inside the panel's response text and are persisted per file
// in the run store, so a resumed panel run re-judges zero files and
// reproduces its report byte-identically — including through a
// daemon serving the ensemble (-serve-addr), whose responses carry
// the same votes across the wire.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ensemble"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/store"
)

// panelPhase is the run-store experiment phase panel probing records
// under; panel records carry the per-member votes next to the sealed
// verdict.
const panelPhase = "panel/direct"

// PanelDialectResult is one dialect's panel measurement.
type PanelDialectResult struct {
	// Strategy is the voting strategy the panel reported in its
	// transcripts ("majority", "unanimous", "weighted").
	Strategy string
	// Members are the panel member names in panel order, as voted.
	Members []string
	// Panel scores the panel verdict against ground truth — the
	// ensemble as one judge.
	Panel metrics.Summary
	// PerMember scores each member's own votes against ground truth,
	// aligned with Members — what each judge would have concluded
	// alone on the same files.
	PerMember []metrics.Summary
	// Agreement is the inter-judge reliability scoring.
	Agreement metrics.Agreement
}

// PanelProbing judges every file of the suite with the Runner's
// backend — which must produce panel transcripts: an ensemble
// backend, or a remote daemon fronting one — using the direct
// analysis prompt, and scores verdict quality and inter-judge
// agreement together. It runs on the same one-stage judge graph as
// the direct-judging phases; with a store configured, each file's
// verdict and member votes append as the file seals, and with resume
// on, stored files are loaded (votes included) instead of judged — a
// corrupt stored record fails the run before any judging.
func (r *Runner) PanelProbing(ctx context.Context, s SuiteSpec) (PanelDialectResult, error) {
	suite, err := BuildSuite(s)
	if err != nil {
		return PanelDialectResult{}, err
	}
	j := &judge.Judge{LLM: r.panelLLM(), Style: judge.Direct, Dialect: s.Dialect}
	votes := make([][]ensemble.Vote, len(suite))
	strategies := make([]string, len(suite))
	results, err := r.judgeSuite(ctx, phase{
		name: panelPhase, key: panelPhase, inputs: suiteInputs(suite),
		load: func(i int, rec store.Record) error {
			strat, vs, err := ensemble.DecodeVotes(rec.Votes)
			if err != nil {
				// A corrupt stored record fails the run before any
				// file fans out to the panel members.
				return fmt.Errorf("llm4vv: stored panel record for %s: %w", suite[i].Name, err)
			}
			votes[i], strategies[i] = vs, strat
			return nil
		},
		extend: func(i int, rec *store.Record) { rec.Votes = ensemble.EncodeVotes(strategies[i], votes[i]) },
	}, j, nil, func(i int, ev judge.Evaluation) error {
		strat, vs, ok := ensemble.ParseVotes(ev.Response)
		if !ok {
			return fmt.Errorf("llm4vv: backend %q returned a single-judge response for %s; the panel experiment needs an ensemble backend (ensemble:a+b+c) or a daemon serving one",
				r.backend, suite[i].Name)
		}
		votes[i], strategies[i] = vs, strat
		return nil
	})
	if err != nil {
		return PanelDialectResult{}, err
	}
	verdicts := make([]judge.Verdict, len(results))
	for i, fr := range results {
		verdicts[i] = fr.Verdict
	}
	return scorePanel(s.Dialect, suite, verdicts, votes, strategies)
}

// panelLLM constructs the experiment's endpoint, recalibrating a
// Weighted in-process panel from run-store history when one exists:
// prior records under this exact (phase, backend, seed) provide each
// member's agreement rate with the stored panel verdict, which
// becomes its vote weight (ensemble.WeightsFromVotes). The history
// streams out of the store's segment scan — votes decode record by
// record, so a calibration corpus of millions of panel records never
// materialises as a slice of store records. Without history — or
// through wrappers (eval cache) and remote daemons that hide the
// panel — the constructed weights stand.
func (r *Runner) panelLLM() judge.LLM {
	llm := r.newLLM()
	p, ok := llm.(*ensemble.Panel)
	if !ok || p.Strategy() != ensemble.Weighted || r.store == nil {
		return llm
	}
	seed := r.seed
	seen := 0
	var history [][]ensemble.Vote
	var panelVerdicts []judge.Verdict
	_ = r.store.Scan(store.Filter{Experiment: panelPhase, Backend: r.backend, Seed: &seed}, func(rec store.Record) bool {
		seen++
		if _, vs, err := ensemble.DecodeVotes(rec.Votes); err == nil {
			history = append(history, vs)
			panelVerdicts = append(panelVerdicts, verdictFromName(rec.Verdict))
		}
		return true
	})
	if seen == 0 {
		return llm
	}
	weights := ensemble.WeightsFromVotes(p.Members(), history, panelVerdicts)
	if rp, err := p.Reweighted(weights); err == nil {
		return rp
	}
	return llm
}

// scorePanel aggregates one suite's panel outcomes. Member names and
// the strategy come from the votes themselves (the panel transcript),
// so the scoring is identical whether the votes were cast in-process,
// behind a daemon, or loaded from the store.
func scorePanel(d spec.Dialect, suite []probe.ProbedFile, verdicts []judge.Verdict, votes [][]ensemble.Vote, strategies []string) (PanelDialectResult, error) {
	res := PanelDialectResult{}
	if len(votes) == 0 {
		return res, fmt.Errorf("llm4vv: panel judged an empty suite")
	}
	for i, v := range votes {
		if len(v) != len(votes[0]) {
			return res, fmt.Errorf("llm4vv: inconsistent panel size: file %d has %d votes, file 0 has %d", i, len(v), len(votes[0]))
		}
	}
	res.Strategy = strategies[0]
	res.Members = make([]string, len(votes[0]))
	for i, v := range votes[0] {
		res.Members[i] = v.Member
	}

	panelOut := make([]metrics.Outcome, len(suite))
	memberOut := make([][]metrics.Outcome, len(res.Members))
	for m := range memberOut {
		memberOut[m] = make([]metrics.Outcome, len(suite))
	}
	voteVerdicts := make([][]judge.Verdict, len(suite))
	for i := range suite {
		panelOut[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: verdicts[i] == judge.Valid}
		voteVerdicts[i] = make([]judge.Verdict, len(res.Members))
		for m, v := range votes[i] {
			vv := v.Verdict
			if v.Err {
				// A dropped member delivered no usable verdict; for
				// scoring and agreement alike that is unparsable.
				vv = judge.Unparsable
			}
			voteVerdicts[i][m] = vv
			memberOut[m][i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: vv == judge.Valid}
		}
	}
	res.Panel = metrics.Score(d, panelOut)
	res.PerMember = make([]metrics.Summary, len(res.Members))
	for m := range res.Members {
		res.PerMember[m] = metrics.Score(d, memberOut[m])
	}
	res.Agreement = metrics.ComputeAgreement(res.Members, voteVerdicts, verdicts)
	return res, nil
}

// PanelScenarioResult carries the panel experiment across dialects.
type PanelScenarioResult struct {
	Dialects []spec.Dialect
	Results  map[spec.Dialect]PanelDialectResult
}

// panelRunner resolves which backend the panel experiment judges
// with: an ensemble backend runs as-is, a remote backend is trusted
// to front a panel daemon-side (its responses carry the votes), and
// any other backend is wrapped in the Runner's panel spec (WithPanel;
// default three seats of itself, each under its own derived member
// seed). The wrap is validated eagerly so a bad member spec fails
// before any judging starts.
func (r *Runner) panelRunner() (*Runner, error) {
	b := r.backend
	if strings.HasPrefix(b, "ensemble:") || strings.HasPrefix(b, "remote:") {
		return r, nil
	}
	memberSpec := r.panelSpec
	if memberSpec == "" {
		memberSpec = b + "+" + b + "+" + b
	}
	if _, err := NewPanel(memberSpec, r.seed); err != nil {
		return nil, err
	}
	return r.withBackend("ensemble:" + memberSpec), nil
}

func runPanelScenario(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
	rp, err := r.panelRunner()
	if err != nil {
		return nil, err
	}
	res := &PanelScenarioResult{Results: map[spec.Dialect]PanelDialectResult{}}
	for _, d := range p.EffectiveDialects() {
		pr, err := rp.PanelProbing(ctx, PartOneSpec(d).Scaled(p.EffectiveScale()))
		if err != nil {
			return nil, err
		}
		res.Dialects = append(res.Dialects, d)
		res.Results[d] = pr
	}
	return res, nil
}

// Report renders the panel verdict tables, the per-member solo
// scorecard, and the agreement block per dialect. Everything printed
// derives from the votes and ground truth — never from local
// configuration — so the same panel produces byte-identical reports
// in-process, through a daemon, and on a resumed run.
func (r *PanelScenarioResult) Report() string {
	var b strings.Builder
	b.WriteString("================ PANEL: ensemble judging with inter-judge agreement ================\n")
	for _, d := range r.Dialects {
		pr := r.Results[d]
		fmt.Fprintf(&b, "Panel of %d judges (strategy %s): %s\n\n",
			len(pr.Members), pr.Strategy, strings.Join(pr.Members, ", "))
		b.WriteString(report.PerIssueTable(fmt.Sprintf("Panel verdict on %v (negative probing)", d), pr.Panel))
		b.WriteByte('\n')

		solo := report.Table{
			Title:   "Each judge alone on the same files:",
			Headers: []string{"Member", "Accuracy", "Bias", "Mistakes"},
		}
		for m, name := range pr.Members {
			s := pr.PerMember[m]
			solo.AddRow(name,
				fmt.Sprintf("%.2f%%", 100*s.Accuracy()),
				fmt.Sprintf("%+.3f", s.Bias()),
				fmt.Sprintf("%d", s.Mistakes))
		}
		solo.AddRow("panel ("+pr.Strategy+")",
			fmt.Sprintf("%.2f%%", 100*pr.Panel.Accuracy()),
			fmt.Sprintf("%+.3f", pr.Panel.Bias()),
			fmt.Sprintf("%d", pr.Panel.Mistakes))
		b.WriteString(solo.Render())
		b.WriteByte('\n')

		b.WriteString(report.Agreement(fmt.Sprintf("Inter-judge agreement (%v):", d), pr.Agreement))
		b.WriteByte('\n')
	}
	return b.String()
}

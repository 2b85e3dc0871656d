package llm4vv

// The paper's experiments as registered scenarios. Each Run gathers
// structured results and its Report method renders the corresponding
// tables and figures, so any front-end (cmd/llm4vv, cmd/judgebench, a
// service) can dispatch and print them without experiment-specific
// code.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/spec"
)

func init() {
	RegisterExperimentFunc("part1",
		"direct LLM-as-a-judge scored by negative probing (Tables I-III)",
		runPart1Scenario)
	RegisterExperimentFunc("part2",
		"agent-based judges and validation pipeline (Tables IV-IX, Figures 3-6)",
		runPart2Scenario)
	RegisterExperimentFunc("ablations",
		"stage-contribution, tool-information, and short-circuit ablations (A1-A3)",
		runAblationsScenario)
	RegisterExperimentFunc("genloop",
		"automated test generation filtered by the validation pipeline (§VI)",
		runGenloopScenario)
	RegisterExperimentFunc("compare",
		"cross-backend sweep: judge the same suites with every registered backend, and the run's own, and render a metrics matrix",
		runCompareScenario)
	RegisterExperimentFunc("panel",
		"ensemble judging: a voting panel of backends with inter-judge agreement metrics (Fleiss' kappa)",
		runPanelScenario)
}

// Part1ScenarioResult carries the Part-One summaries per dialect.
type Part1ScenarioResult struct {
	Dialects  []spec.Dialect
	Summaries map[spec.Dialect]metrics.Summary
}

func runPart1Scenario(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
	res := &Part1ScenarioResult{Summaries: map[spec.Dialect]metrics.Summary{}}
	for _, d := range p.EffectiveDialects() {
		s, err := r.DirectProbing(ctx, PartOneSpec(d).Scaled(p.EffectiveScale()))
		if err != nil {
			return nil, err
		}
		res.Dialects = append(res.Dialects, d)
		res.Summaries[d] = s
	}
	return res, nil
}

func (r *Part1ScenarioResult) Report() string {
	var b strings.Builder
	b.WriteString("================ PART ONE: direct LLM-as-a-judge (negative probing) ================\n")
	overall := map[string][]metrics.Summary{}
	for _, d := range r.Dialects {
		s := r.Summaries[d]
		overall[d.String()] = []metrics.Summary{s}
		title := "Table I: LLMJ Negative Probing Results for OpenACC"
		if d == spec.OpenMP {
			title = "Table II: LLMJ Negative Probing Results for OpenMP"
		}
		b.WriteString(report.PerIssueTable(title, s))
		b.WriteByte('\n')
	}
	b.WriteString(report.OverallTable("Table III: LLMJ Overall Negative Probing Results",
		[]string{""}, overall))
	return b.String()
}

// Part2ScenarioResult carries the full Part-Two measurements per
// dialect.
type Part2ScenarioResult struct {
	Dialects []spec.Dialect
	Results  map[spec.Dialect]PartTwoResult
}

func runPart2Scenario(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
	res := &Part2ScenarioResult{Results: map[spec.Dialect]PartTwoResult{}}
	for _, d := range p.EffectiveDialects() {
		pr, err := r.PartTwo(ctx, PartTwoSpec(d).Scaled(p.EffectiveScale()))
		if err != nil {
			return nil, err
		}
		res.Dialects = append(res.Dialects, d)
		res.Results[d] = pr
	}
	return res, nil
}

func (r *Part2ScenarioResult) Report() string {
	var b strings.Builder
	b.WriteString("================ PART TWO: agent-based judges and validation pipeline ================\n")
	pipeCols := map[string][]metrics.Summary{}
	judgeCols := map[string][]metrics.Summary{}
	for _, d := range r.Dialects {
		pr := r.Results[d]
		pipeCols[d.String()] = []metrics.Summary{pr.Pipeline1, pr.Pipeline2}
		judgeCols[d.String()] = []metrics.Summary{pr.LLMJ1, pr.LLMJ2}
	}
	tables := []struct {
		d     spec.Dialect
		title string
		a, b  func(PartTwoResult) metrics.Summary
		nameA string
		nameB string
	}{
		{spec.OpenACC, "Table IV: Validation Pipeline Results for OpenACC",
			func(p PartTwoResult) metrics.Summary { return p.Pipeline1 },
			func(p PartTwoResult) metrics.Summary { return p.Pipeline2 }, "Pipeline 1", "Pipeline 2"},
		{spec.OpenMP, "Table V: Validation Pipeline Results for OpenMP",
			func(p PartTwoResult) metrics.Summary { return p.Pipeline1 },
			func(p PartTwoResult) metrics.Summary { return p.Pipeline2 }, "Pipeline 1", "Pipeline 2"},
	}
	for _, t := range tables {
		if pr, ok := r.Results[t.d]; ok {
			b.WriteString(report.PairedPerIssueTable(t.title, t.nameA, t.nameB, t.a(pr), t.b(pr)))
			b.WriteByte('\n')
		}
	}
	b.WriteString(report.OverallTable("Table VI: Overall Validation Pipeline Results",
		[]string{"Pipeline 1", "Pipeline 2"}, pipeCols))
	b.WriteByte('\n')

	judgeTables := []struct {
		d     spec.Dialect
		title string
	}{
		{spec.OpenACC, "Table VII: Agent-Based LLMJ Results for OpenACC"},
		{spec.OpenMP, "Table VIII: Agent-Based LLMJ Results for OpenMP"},
	}
	for _, t := range judgeTables {
		if pr, ok := r.Results[t.d]; ok {
			b.WriteString(report.PairedPerIssueTable(t.title, "LLMJ 1", "LLMJ 2", pr.LLMJ1, pr.LLMJ2))
			b.WriteByte('\n')
		}
	}
	b.WriteString(report.OverallTable("Table IX: Overall Agent-Based LLMJ Results",
		[]string{"LLMJ 1", "LLMJ 2"}, judgeCols))
	b.WriteByte('\n')

	figures := []struct {
		d     spec.Dialect
		title string
		judge bool
	}{
		{spec.OpenACC, "Figure 3: Validation Pipeline Results for OpenACC (radar series)", false},
		{spec.OpenMP, "Figure 4: Validation Pipeline Results for OpenMP (radar series)", false},
		{spec.OpenACC, "Figure 5: LLMJ Results for OpenACC (radar series)", true},
		{spec.OpenMP, "Figure 6: LLMJ Results for OpenMP (radar series)", true},
	}
	for _, f := range figures {
		pr, ok := r.Results[f.d]
		if !ok {
			continue
		}
		if f.judge {
			b.WriteString(report.RadarSeries(f.title,
				[]string{"Non-agent LLMJ", "LLMJ 1", "LLMJ 2"},
				[]metrics.Summary{pr.Direct, pr.LLMJ1, pr.LLMJ2}))
		} else {
			b.WriteString(report.RadarSeries(f.title,
				[]string{"Pipeline 1", "Pipeline 2"},
				[]metrics.Summary{pr.Pipeline1, pr.Pipeline2}))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AblationsScenarioResult carries the A1-A3 ablation measurements per
// dialect.
type AblationsScenarioResult struct {
	Dialects   []spec.Dialect
	Ablation   map[spec.Dialect]AblationResult
	Throughput map[spec.Dialect]PipelineThroughputResult
}

func runAblationsScenario(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
	res := &AblationsScenarioResult{
		Ablation:   map[spec.Dialect]AblationResult{},
		Throughput: map[spec.Dialect]PipelineThroughputResult{},
	}
	for _, d := range p.EffectiveDialects() {
		s := PartTwoSpec(d).Scaled(p.EffectiveScale())
		ab, err := r.Ablation(ctx, s)
		if err != nil {
			return nil, err
		}
		tp, err := r.PipelineThroughput(ctx, s)
		if err != nil {
			return nil, err
		}
		res.Dialects = append(res.Dialects, d)
		res.Ablation[d] = ab
		res.Throughput[d] = tp
	}
	return res, nil
}

func (r *AblationsScenarioResult) Report() string {
	var b strings.Builder
	b.WriteString("================ ABLATIONS (DESIGN.md A1-A3) ================\n")
	for _, d := range r.Dialects {
		ab := r.Ablation[d]
		fmt.Fprintf(&b, "A2 (%v): tool information in the prompt\n", d)
		fmt.Fprintf(&b, "  without tools: acc=%.2f%% bias=%+.3f\n", 100*ab.WithoutTools.Accuracy(), ab.WithoutTools.Bias())
		fmt.Fprintf(&b, "  with tools:    acc=%.2f%% bias=%+.3f\n\n", 100*ab.WithTools.Accuracy(), ab.WithTools.Bias())

		fmt.Fprintf(&b, "A3 (%v): stage contribution\n", d)
		fmt.Fprintf(&b, "  compile only:        acc=%.2f%%\n", 100*ab.CompileOnly.Accuracy())
		fmt.Fprintf(&b, "  compile + execute:   acc=%.2f%%\n", 100*ab.CompileAndRun.Accuracy())
		fmt.Fprintf(&b, "  full pipeline:       acc=%.2f%%\n\n", 100*ab.FullPipeline.Accuracy())

		tp := r.Throughput[d]
		fmt.Fprintf(&b, "A1 (%v): short-circuiting\n", d)
		fmt.Fprintf(&b, "  short-circuit: compiles=%d executions=%d judge calls=%d\n",
			tp.ShortCircuit.Compiles, tp.ShortCircuit.Executions, tp.ShortCircuit.JudgeCalls)
		fmt.Fprintf(&b, "  record-all:    compiles=%d executions=%d judge calls=%d\n\n",
			tp.RecordAll.Compiles, tp.RecordAll.Executions, tp.RecordAll.JudgeCalls)
	}
	return b.String()
}

// CompareScenarioResult carries the cross-backend sweep: the same
// Part-One suites judged by every registered backend, and the
// Runner's own, under one seed, the multi-backend direction of the
// LLM4VV follow-up work.
type CompareScenarioResult struct {
	Backends  []string
	Dialects  []spec.Dialect
	Summaries map[string]map[spec.Dialect]metrics.Summary
}

// runCompareScenario sweeps every registered backend, plus the
// dispatching Runner's own, through direct probing on the same suites
// — so a daemon, fleet or panel named by WithBackend joins the sweep
// without being registered. Each backend runs on a copy of the
// dispatching Runner that shares its run store, so a stored, resumed
// sweep skips every (backend, file) pair a previous run already
// judged — adding one backend to a finished sweep judges only the new
// backend's files. Each copy builds its own endpoint and closes it
// when its row is done.
func runCompareScenario(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
	names := Backends()
	if i, found := slices.BinarySearch(names, r.backend); !found {
		names = slices.Insert(names, i, r.backend)
	}
	res := &CompareScenarioResult{
		Backends:  names,
		Dialects:  p.EffectiveDialects(),
		Summaries: map[string]map[spec.Dialect]metrics.Summary{},
	}
	for _, name := range res.Backends {
		rb, err := r.withBackend(name)
		if err != nil {
			return nil, err
		}
		res.Summaries[name] = map[spec.Dialect]metrics.Summary{}
		for _, d := range res.Dialects {
			sum, err := rb.DirectProbing(ctx, PartOneSpec(d).Scaled(p.EffectiveScale()))
			if err != nil {
				closeEndpoint(rb.llm)
				return nil, err
			}
			res.Summaries[name][d] = sum
		}
		closeEndpoint(rb.llm)
	}
	return res, nil
}

func (r *CompareScenarioResult) Report() string {
	var b strings.Builder
	b.WriteString("================ CROSS-BACKEND COMPARISON (direct probing) ================\n")
	fmt.Fprintf(&b, "%-24s", "backend")
	for _, d := range r.Dialects {
		fmt.Fprintf(&b, " | %8s acc%%  bias", d)
	}
	b.WriteByte('\n')
	for _, name := range r.Backends {
		fmt.Fprintf(&b, "%-24s", name)
		for _, d := range r.Dialects {
			s := r.Summaries[name][d]
			fmt.Fprintf(&b, " | %12.2f %+.3f", 100*s.Accuracy(), s.Bias())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GenloopScenarioResult carries one generation campaign per dialect.
type GenloopScenarioResult struct {
	Dialects []spec.Dialect
	Results  map[spec.Dialect]*GenerationResult
}

func runGenloopScenario(ctx context.Context, r *Runner, p ExperimentParams) (ExperimentResult, error) {
	perFeature := p.PerFeature
	if perFeature <= 0 {
		perFeature = 2
	}
	res := &GenloopScenarioResult{Results: map[spec.Dialect]*GenerationResult{}}
	for _, d := range p.EffectiveDialects() {
		gr, err := r.GenerationLoop(ctx, d, perFeature)
		if err != nil {
			return nil, err
		}
		res.Dialects = append(res.Dialects, d)
		res.Results[d] = gr
	}
	return res, nil
}

func (r *GenloopScenarioResult) Report() string {
	var b strings.Builder
	b.WriteString("================ EXTENSION E1: automated test generation (paper §VI) ================\n")
	for _, d := range r.Dialects {
		gr := r.Results[d]
		fmt.Fprintf(&b, "%v: %d candidates, %d accepted\n", d, len(gr.Candidates), len(gr.Accepted))
		fmt.Fprintf(&b, "  raw sound rate      %5.1f%%\n", 100*gr.RawSoundRate())
		fmt.Fprintf(&b, "  accepted precision  %5.1f%%\n", 100*gr.AcceptancePrecision())
		fmt.Fprintf(&b, "  defect catch rate   %5.1f%%\n", 100*gr.DefectCatchRate())
		fmt.Fprintf(&b, "  sound-test yield    %5.1f%%\n\n", 100*gr.SoundYield())
	}
	return b.String()
}

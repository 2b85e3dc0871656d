package llm4vv

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section (DESIGN.md §6 maps each bench to its
// artifact). Each bench runs its experiment end to end — suite
// generation, negative probing, toolchain, judging, scoring — on a
// 1/benchScale-sized suite per iteration and reports the headline
// metrics via b.ReportMetric, so `go test -bench .` doubles as a
// regression check on the reproduced shapes. cmd/llm4vv runs the same
// experiments at full size.

import (
	"context"
	"testing"

	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/spec"
)

// benchScale shrinks suites so a bench iteration stays ~100ms-1s.
const benchScale = 8

func reportSummary(b *testing.B, prefix string, s metrics.Summary) {
	b.ReportMetric(100*s.Accuracy(), prefix+"acc%")
	b.ReportMetric(s.Bias(), prefix+"bias")
}

func benchDirect(b *testing.B, d spec.Dialect) metrics.Summary {
	b.Helper()
	var last metrics.Summary
	for i := 0; i < b.N; i++ {
		s, err := mustRunner(b, WithSeed(DefaultModelSeed)).DirectProbing(context.Background(), PartOneSpec(d).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	return last
}

func benchPartTwo(b *testing.B, d spec.Dialect) PartTwoResult {
	b.Helper()
	var last PartTwoResult
	for i := 0; i < b.N; i++ {
		r, err := mustRunner(b, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(d).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

// BenchmarkTableI — direct LLMJ per-issue negative probing, OpenACC.
func BenchmarkTableI(b *testing.B) {
	s := benchDirect(b, spec.OpenACC)
	reportSummary(b, "", s)
	b.ReportMetric(100*s.PerIssue[probe.IssueRandom].Accuracy(), "random-detect%")
}

// BenchmarkTableII — direct LLMJ per-issue negative probing, OpenMP.
func BenchmarkTableII(b *testing.B) {
	s := benchDirect(b, spec.OpenMP)
	reportSummary(b, "", s)
	b.ReportMetric(100*s.PerIssue[probe.IssueRandom].Accuracy(), "random-detect%")
}

// BenchmarkTableIII — overall direct-LLMJ accuracy and bias for both
// dialects (the aggregate of Tables I and II).
func BenchmarkTableIII(b *testing.B) {
	var acc, omp metrics.Summary
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = mustRunner(b, WithSeed(DefaultModelSeed)).DirectProbing(context.Background(), PartOneSpec(spec.OpenACC).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		omp, err = mustRunner(b, WithSeed(DefaultModelSeed)).DirectProbing(context.Background(), PartOneSpec(spec.OpenMP).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSummary(b, "acc-", acc)
	reportSummary(b, "omp-", omp)
}

// BenchmarkTableIV — validation pipeline per-issue, OpenACC.
func BenchmarkTableIV(b *testing.B) {
	r := benchPartTwo(b, spec.OpenACC)
	reportSummary(b, "p1-", r.Pipeline1)
	reportSummary(b, "p2-", r.Pipeline2)
	b.ReportMetric(100*r.Pipeline1.PerIssue[probe.IssueTruncated].Accuracy(), "p1-trunc%")
}

// BenchmarkTableV — validation pipeline per-issue, OpenMP.
func BenchmarkTableV(b *testing.B) {
	r := benchPartTwo(b, spec.OpenMP)
	reportSummary(b, "p1-", r.Pipeline1)
	reportSummary(b, "p2-", r.Pipeline2)
	b.ReportMetric(100*r.Pipeline1.PerIssue[probe.IssueTruncated].Accuracy(), "p1-trunc%")
}

// BenchmarkTableVI — overall pipeline accuracy/bias, both dialects.
func BenchmarkTableVI(b *testing.B) {
	var acc, omp PartTwoResult
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = mustRunner(b, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenACC).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		omp, err = mustRunner(b, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenMP).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSummary(b, "acc-p1-", acc.Pipeline1)
	reportSummary(b, "omp-p1-", omp.Pipeline1)
	b.ReportMetric(100*(omp.Pipeline1.Accuracy()-acc.Pipeline1.Accuracy()), "omp-acc-gap%")
}

// BenchmarkTableVII — agent-based LLMJs per-issue, OpenACC.
func BenchmarkTableVII(b *testing.B) {
	r := benchPartTwo(b, spec.OpenACC)
	reportSummary(b, "llmj1-", r.LLMJ1)
	reportSummary(b, "llmj2-", r.LLMJ2)
}

// BenchmarkTableVIII — agent-based LLMJs per-issue, OpenMP.
func BenchmarkTableVIII(b *testing.B) {
	r := benchPartTwo(b, spec.OpenMP)
	reportSummary(b, "llmj1-", r.LLMJ1)
	reportSummary(b, "llmj2-", r.LLMJ2)
}

// BenchmarkTableIX — overall agent-based LLMJ accuracy/bias.
func BenchmarkTableIX(b *testing.B) {
	var acc, omp PartTwoResult
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = mustRunner(b, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenACC).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		omp, err = mustRunner(b, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenMP).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSummary(b, "acc-llmj1-", acc.LLMJ1)
	reportSummary(b, "omp-llmj1-", omp.LLMJ1)
	reportSummary(b, "acc-llmj2-", acc.LLMJ2)
	reportSummary(b, "omp-llmj2-", omp.LLMJ2)
}

// radarMetric reports the five Figure axes as metrics.
func radarMetric(b *testing.B, prefix string, s metrics.Summary) {
	for _, ax := range metrics.RadarAxes(s) {
		b.ReportMetric(100*ax.Value, prefix+shortAxis(ax.Label)+"%")
	}
}

func shortAxis(label string) string {
	switch label {
	case "Improper Directives":
		return "dir"
	case "Improper Syntax":
		return "syn"
	case "No Directives":
		return "nodir"
	case "Test Logic":
		return "logic"
	case "Valid Recognition":
		return "valid"
	default:
		return "ax"
	}
}

// BenchmarkFigure3 — radar axes for both pipelines, OpenACC.
func BenchmarkFigure3(b *testing.B) {
	r := benchPartTwo(b, spec.OpenACC)
	radarMetric(b, "p1-", r.Pipeline1)
}

// BenchmarkFigure4 — radar axes for both pipelines, OpenMP.
func BenchmarkFigure4(b *testing.B) {
	r := benchPartTwo(b, spec.OpenMP)
	radarMetric(b, "p1-", r.Pipeline1)
}

// BenchmarkFigure5 — radar axes for the three judges, OpenACC.
func BenchmarkFigure5(b *testing.B) {
	r := benchPartTwo(b, spec.OpenACC)
	radarMetric(b, "direct-", r.Direct)
	radarMetric(b, "llmj1-", r.LLMJ1)
}

// BenchmarkFigure6 — radar axes for the three judges, OpenMP.
func BenchmarkFigure6(b *testing.B) {
	r := benchPartTwo(b, spec.OpenMP)
	radarMetric(b, "direct-", r.Direct)
	radarMetric(b, "llmj1-", r.LLMJ1)
}

// BenchmarkPipelineThroughput — ablation A1: stage executions saved by
// short-circuiting.
func BenchmarkPipelineThroughput(b *testing.B) {
	var r PipelineThroughputResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = mustRunner(b, WithSeed(DefaultModelSeed), WithWorkers(8)).PipelineThroughput(context.Background(), PartTwoSpec(spec.OpenACC).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ShortCircuit.JudgeCalls), "judge-calls-short")
	b.ReportMetric(float64(r.RecordAll.JudgeCalls), "judge-calls-all")
	saved := float64(r.RecordAll.JudgeCalls-r.ShortCircuit.JudgeCalls) /
		float64(r.RecordAll.JudgeCalls)
	b.ReportMetric(100*saved, "judge-calls-saved%")
}

// BenchmarkPipelineWorkers — wall-clock scaling of the pipeline's
// worker pools over a fixed suite.
func BenchmarkPipelineWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mustRunner(b, WithSeed(DefaultModelSeed), WithWorkers(workers)).PipelineThroughput(context.Background(), PartTwoSpec(spec.OpenMP).Scaled(benchScale)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers-" + string(rune('0'+workers))
}

// BenchmarkAblationAgentInfo — ablation A2: accuracy delta from tool
// information, same model, same suite.
func BenchmarkAblationAgentInfo(b *testing.B) {
	var r AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = mustRunner(b, WithSeed(DefaultModelSeed)).Ablation(context.Background(), PartTwoSpec(spec.OpenACC).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.WithoutTools.Accuracy(), "without-tools-acc%")
	b.ReportMetric(100*r.WithTools.Accuracy(), "with-tools-acc%")
	b.ReportMetric(100*(r.WithTools.Accuracy()-r.WithoutTools.Accuracy()), "delta%")
}

// BenchmarkAblationStages — ablation A3: accuracy of compile-only,
// compile+run, and the full pipeline.
func BenchmarkAblationStages(b *testing.B) {
	var r AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = mustRunner(b, WithSeed(DefaultModelSeed)).Ablation(context.Background(), PartTwoSpec(spec.OpenMP).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.CompileOnly.Accuracy(), "compile-acc%")
	b.ReportMetric(100*r.CompileAndRun.Accuracy(), "compile+run-acc%")
	b.ReportMetric(100*r.FullPipeline.Accuracy(), "full-acc%")
}

// BenchmarkSuiteGeneration — cost of corpus generation plus negative
// probing (the workload generator itself).
func BenchmarkSuiteGeneration(b *testing.B) {
	spec2 := PartTwoSpec(spec.OpenACC).Scaled(benchScale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSuite(spec2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerationLoop — extension E1 (paper §VI future work): the
// LLM-author + pipeline-filter campaign, reporting filter quality.
func BenchmarkGenerationLoop(b *testing.B) {
	var r *GenerationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = mustRunner(b, WithSeed(DefaultModelSeed)).GenerationLoop(context.Background(), spec.OpenACC, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.RawSoundRate(), "raw-sound%")
	b.ReportMetric(100*r.AcceptancePrecision(), "accepted-precision%")
	b.ReportMetric(100*r.DefectCatchRate(), "defect-catch%")
	b.ReportMetric(float64(len(r.Candidates))/float64(len(r.Accepted)+1), "candidates/accepted")
}

// BenchmarkPanelAgreement — the ensemble experiment: a three-seat
// panel of the default backend on the Part-One OpenACC suite,
// reporting the panel verdict quality and the inter-judge agreement
// headline (Fleiss' kappa, mean pairwise agreement). Deterministic
// like every other metric here, so benchci gates the agreement
// numbers against the committed baseline.
func BenchmarkPanelAgreement(b *testing.B) {
	r, err := NewRunner()
	if err != nil {
		b.Fatal(err)
	}
	var last PanelDialectResult
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(context.Background(), r, "panel",
			ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		last = res.(*PanelScenarioResult).Results[spec.OpenACC]
	}
	reportSummary(b, "panel-", last.Panel)
	// A unit without the % suffix gets benchci's bias tolerance —
	// right for kappa, a coefficient in [-1, 1].
	b.ReportMetric(last.Agreement.Kappa, "kappa")
	b.ReportMetric(100*last.Agreement.MeanPairwise(), "pairwise%")
}

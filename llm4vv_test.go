package llm4vv

import (
	"context"
	"testing"

	"repro/internal/probe"
	"repro/internal/spec"
)

// The integration tests assert the paper's qualitative findings — the
// "shape" DESIGN.md §4 commits to — on the actual experiment runners.
// Absolute values use bands wide enough to absorb sampling noise but
// narrow enough that a broken substrate or mis-calibrated judge fails.

func TestPartOneShapeOpenACC(t *testing.T) {
	s, err := mustRunner(t, WithSeed(DefaultModelSeed)).DirectProbing(context.Background(), PartOneSpec(spec.OpenACC))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 1335 {
		t.Fatalf("suite size = %d, want 1335 (Table I)", s.Total)
	}
	if a := s.Accuracy(); a < 0.50 || a > 0.64 {
		t.Errorf("overall accuracy = %.3f, paper band ~0.57", a)
	}
	if b := s.Bias(); b < 0.55 {
		t.Errorf("bias = %.3f, paper shows strong positive ~0.72", b)
	}
	// The direct ACC judge catches only the no-directive class.
	if a := s.PerIssue[probe.IssueRandom].Accuracy(); a < 0.65 {
		t.Errorf("random-code detection = %.2f, paper ~0.80", a)
	}
	for _, issue := range []probe.Issue{probe.IssueDirective, probe.IssueBracket, probe.IssueUndeclared, probe.IssueTruncated} {
		if a := s.PerIssue[issue].Accuracy(); a > 0.30 {
			t.Errorf("issue %d accuracy = %.2f, paper shows ~0.12-0.15", issue, a)
		}
	}
	if a := s.PerIssue[probe.IssueNone].Accuracy(); a < 0.80 {
		t.Errorf("valid recognition = %.2f, paper ~0.88", a)
	}
}

func TestPartOneShapeOpenMP(t *testing.T) {
	s, err := mustRunner(t, WithSeed(DefaultModelSeed)).DirectProbing(context.Background(), PartOneSpec(spec.OpenMP))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 431 {
		t.Fatalf("suite size = %d, want 431 (Table II)", s.Total)
	}
	if a := s.Accuracy(); a < 0.32 || a > 0.50 {
		t.Errorf("overall accuracy = %.3f, paper band ~0.41", a)
	}
	if b := s.Bias(); b < -0.25 || b > 0.25 {
		t.Errorf("bias = %.3f, paper shows near zero (-0.031)", b)
	}
	// The famous blind spot: random non-OMP code almost never flagged.
	if a := s.PerIssue[probe.IssueRandom].Accuracy(); a > 0.20 {
		t.Errorf("random-code detection = %.2f, paper ~0.04", a)
	}
	// Bracket errors are the direct OMP judge's best class.
	if a := s.PerIssue[probe.IssueBracket].Accuracy(); a < 0.55 {
		t.Errorf("bracket detection = %.2f, paper ~0.74", a)
	}
}

func TestPartTwoShapeOpenACC(t *testing.T) {
	if testing.Short() {
		t.Skip("full Part-Two run")
	}
	r, err := mustRunner(t, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenACC))
	if err != nil {
		t.Fatal(err)
	}
	if r.LLMJ1.Total != 1782 {
		t.Fatalf("suite size = %d, want 1782", r.LLMJ1.Total)
	}
	// Agent judges drastically beat the direct judge (paper's core claim).
	if r.LLMJ1.Accuracy() < r.Direct.Accuracy()+0.10 {
		t.Errorf("LLMJ1 %.3f not drastically better than direct %.3f",
			r.LLMJ1.Accuracy(), r.Direct.Accuracy())
	}
	if r.LLMJ2.Accuracy() < r.Direct.Accuracy()+0.08 {
		t.Errorf("LLMJ2 %.3f not drastically better than direct %.3f",
			r.LLMJ2.Accuracy(), r.Direct.Accuracy())
	}
	// LLMJ1 edges out LLMJ2 overall (Table IX).
	if r.LLMJ1.Accuracy() <= r.LLMJ2.Accuracy() {
		t.Errorf("LLMJ1 %.3f should beat LLMJ2 %.3f on OpenACC",
			r.LLMJ1.Accuracy(), r.LLMJ2.Accuracy())
	}
	// Pipelines in the paper's band.
	if a := r.Pipeline1.Accuracy(); a < 0.76 || a > 0.86 {
		t.Errorf("Pipeline1 accuracy = %.3f, paper 0.805", a)
	}
	if a := r.Pipeline2.Accuracy(); a < 0.72 || a > 0.82 {
		t.Errorf("Pipeline2 accuracy = %.3f, paper 0.771", a)
	}
	// Syntax classes are fully caught by the pipeline.
	for _, issue := range []probe.Issue{probe.IssueBracket, probe.IssueUndeclared} {
		if a := r.Pipeline1.PerIssue[issue].Accuracy(); a < 0.99 {
			t.Errorf("pipeline issue %d = %.2f, want 100%%", issue, a)
		}
	}
	// Truncation stays hard for OpenACC even with the pipeline.
	if a := r.Pipeline1.PerIssue[probe.IssueTruncated].Accuracy(); a > 0.45 {
		t.Errorf("ACC truncation pipeline accuracy = %.2f, paper 0.22", a)
	}
	// Agent judges' mistakes skew permissive; pipelines' skew restrictive.
	if r.LLMJ1.Bias() < 0.3 || r.LLMJ2.Bias() < 0.0 {
		t.Errorf("agent biases %.3f/%.3f should be positive", r.LLMJ1.Bias(), r.LLMJ2.Bias())
	}
	if r.Pipeline2.Bias() > -0.1 {
		t.Errorf("Pipeline2 bias = %.3f, paper -0.294", r.Pipeline2.Bias())
	}
	// Pipeline loses some valid files the judge alone would pass (the
	// imperfect-toolchain effect).
	if r.Pipeline1.PerIssue[probe.IssueNone].Accuracy() >= r.LLMJ1.PerIssue[probe.IssueNone].Accuracy() {
		t.Error("pipeline valid-recognition should trail the agent judge's (toolchain gaps)")
	}
}

func TestPartTwoShapeOpenMP(t *testing.T) {
	if testing.Short() {
		t.Skip("full Part-Two run")
	}
	r, err := mustRunner(t, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenMP))
	if err != nil {
		t.Fatal(err)
	}
	if r.LLMJ1.Total != 296 {
		t.Fatalf("suite size = %d, want 296", r.LLMJ1.Total)
	}
	// OpenMP pipelines are far more accurate than OpenACC's (~93% vs ~80%).
	if a := r.Pipeline1.Accuracy(); a < 0.87 {
		t.Errorf("Pipeline1 accuracy = %.3f, paper 0.926", a)
	}
	if a := r.Pipeline2.Accuracy(); a < 0.88 {
		t.Errorf("Pipeline2 accuracy = %.3f, paper 0.939", a)
	}
	// Truncation IS caught for OpenMP (fail-closed reporting idiom).
	if a := r.Pipeline1.PerIssue[probe.IssueTruncated].Accuracy(); a < 0.75 {
		t.Errorf("OMP truncation pipeline accuracy = %.2f, paper 0.92", a)
	}
	// Agent judges strongly permissive.
	if r.LLMJ1.Bias() < 0.4 || r.LLMJ2.Bias() < 0.4 {
		t.Errorf("agent biases %.3f/%.3f should be strongly positive",
			r.LLMJ1.Bias(), r.LLMJ2.Bias())
	}
	// Valid recognition high for both judges.
	if a := r.LLMJ1.PerIssue[probe.IssueNone].Accuracy(); a < 0.85 {
		t.Errorf("LLMJ1 valid recognition = %.2f, paper 0.93", a)
	}
}

func TestCrossDialectPipelineGap(t *testing.T) {
	if testing.Short() {
		t.Skip("full Part-Two runs")
	}
	accRes, err := mustRunner(t, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenACC))
	if err != nil {
		t.Fatal(err)
	}
	ompRes, err := mustRunner(t, WithSeed(DefaultModelSeed)).PartTwo(context.Background(), PartTwoSpec(spec.OpenMP))
	if err != nil {
		t.Fatal(err)
	}
	if gap := ompRes.Pipeline1.Accuracy() - accRes.Pipeline1.Accuracy(); gap < 0.05 {
		t.Errorf("OMP-vs-ACC pipeline gap = %.3f, paper shows ~0.12", gap)
	}
}

func TestDirectProbingDeterministic(t *testing.T) {
	spec1 := PartOneSpec(spec.OpenMP)
	a, err := mustRunner(t, WithSeed(5)).DirectProbing(context.Background(), spec1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustRunner(t, WithSeed(5)).DirectProbing(context.Background(), spec1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	c, err := mustRunner(t, WithSeed(6)).DirectProbing(context.Background(), spec1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different model seeds produced identical summaries")
	}
}

func TestAblationAgentInfoShape(t *testing.T) {
	r, err := mustRunner(t, WithSeed(DefaultModelSeed)).AblationAgentInfo(context.Background(), PartTwoSpec(spec.OpenACC).Scaled(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.WithTools.Accuracy() <= r.WithoutTools.Accuracy() {
		t.Errorf("tool info did not help: with=%.3f without=%.3f",
			r.WithTools.Accuracy(), r.WithoutTools.Accuracy())
	}
}

func TestAblationStagesShape(t *testing.T) {
	r, err := mustRunner(t, WithSeed(DefaultModelSeed)).AblationStages(context.Background(), PartTwoSpec(spec.OpenMP).Scaled(2))
	if err != nil {
		t.Fatal(err)
	}
	// Each added stage catches more invalid files (valid files can
	// only be lost by stages, so compare per invalid issue class).
	co, cr, fp := r.CompileOnly, r.CompileAndRun, r.FullPipeline
	for issue := probe.Issue(0); issue < probe.IssueNone; issue++ {
		if cr.PerIssue[issue].Correct < co.PerIssue[issue].Correct {
			t.Errorf("issue %d: adding execution lost catches (%d -> %d)",
				issue, co.PerIssue[issue].Correct, cr.PerIssue[issue].Correct)
		}
		if fp.PerIssue[issue].Correct < cr.PerIssue[issue].Correct {
			t.Errorf("issue %d: adding judge lost catches (%d -> %d)",
				issue, cr.PerIssue[issue].Correct, fp.PerIssue[issue].Correct)
		}
	}
}

func TestPipelineThroughputShape(t *testing.T) {
	r, err := mustRunner(t, WithSeed(DefaultModelSeed), WithWorkers(4)).PipelineThroughput(context.Background(), PartTwoSpec(spec.OpenACC).Scaled(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.ShortCircuit.JudgeCalls >= r.RecordAll.JudgeCalls {
		t.Errorf("short-circuit judge calls %d >= record-all %d",
			r.ShortCircuit.JudgeCalls, r.RecordAll.JudgeCalls)
	}
	if r.ShortCircuit.Compiles != r.RecordAll.Compiles {
		t.Errorf("compile counts differ: %d vs %d", r.ShortCircuit.Compiles, r.RecordAll.Compiles)
	}
}

func TestSuiteSpecScaled(t *testing.T) {
	s := PartTwoSpec(spec.OpenACC)
	half := s.Scaled(2)
	if half.Counts.Total() >= s.Counts.Total() {
		t.Fatal("scaling did not shrink the suite")
	}
	for i, n := range s.Counts {
		if n > 0 && half.Counts[i] == 0 {
			t.Fatalf("issue %d scaled to zero", i)
		}
	}
	if same := s.Scaled(1); same.Counts != s.Counts {
		t.Fatal("Scaled(1) changed counts")
	}
}

func TestBuildSuiteMatchesSpec(t *testing.T) {
	spec1 := PartOneSpec(spec.OpenACC)
	suite, err := BuildSuite(spec1)
	if err != nil {
		t.Fatal(err)
	}
	counts := probe.Counts{}
	fortran := 0
	for _, pf := range suite {
		counts[pf.Issue]++
		if pf.Lang.String() == "Fortran" {
			fortran++
		}
	}
	if counts != spec1.Counts {
		t.Fatalf("counts = %v, want %v", counts, spec1.Counts)
	}
	if fortran == 0 {
		t.Fatal("Part-One OpenACC suite has no Fortran files")
	}
}

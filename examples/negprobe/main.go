// Negative probing example: build a small labelled suite, judge every
// file with the direct (Part-One) prompt, and print the per-issue
// scorecard — a miniature Table I.
package main

import (
	"context"
	"fmt"

	llm4vv "repro"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/testlang"
)

func main() {
	suiteSpec := llm4vv.SuiteSpec{
		Dialect: spec.OpenACC,
		Counts:  probe.Counts{20, 12, 10, 12, 11, 65},
		Langs:   []testlang.Language{testlang.LangC, testlang.LangCPP},
		Seed:    2024,
	}
	suite, err := llm4vv.BuildSuite(suiteSpec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("probed suite: %d files (%d invalid, %d valid)\n\n",
		len(suite), suiteSpec.Counts.Total()-suiteSpec.Counts[probe.IssueNone],
		suiteSpec.Counts[probe.IssueNone])

	// Show one mutated file so the probing is concrete.
	for _, pf := range suite {
		if pf.Issue == probe.IssueDirective {
			fmt.Printf("example mutation on %s: %s\n\n", pf.Name, pf.Mutation)
			break
		}
	}

	llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		panic(err)
	}
	j := &judge.Judge{
		LLM:     llm,
		Style:   judge.Direct,
		Dialect: spec.OpenACC,
	}
	outcomes := make([]metrics.Outcome, len(suite))
	for i, pf := range suite {
		ev, err := j.Evaluate(context.Background(), pf.Source, nil)
		if err != nil {
			panic(err)
		}
		outcomes[i] = metrics.Outcome{Issue: pf.Issue, JudgedValid: ev.Verdict == judge.Valid}
	}
	s := metrics.Score(spec.OpenACC, outcomes)
	fmt.Println(report.PerIssueTable("Direct LLMJ negative probing (miniature Table I)", s))
	fmt.Printf("overall accuracy %.2f%%, bias %+.3f\n", 100*s.Accuracy(), s.Bias())
	fmt.Println("\nNote the paper's signature pattern: the direct judge only")
	fmt.Println("reliably flags files containing no OpenACC at all.")
}

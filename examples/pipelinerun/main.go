// Validation pipeline example: stream a mixed suite through the
// compile → execute → judge pipeline, comparing short-circuit mode
// against record-all mode and single-worker against parallel stages.
package main

import (
	"context"
	"fmt"
	"time"

	llm4vv "repro"
	"repro/internal/agent"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/testlang"
)

func main() {
	suiteSpec := llm4vv.SuiteSpec{
		Dialect: spec.OpenMP,
		Counts:  probe.Counts{15, 10, 10, 8, 10, 47},
		Langs:   []testlang.Language{testlang.LangC, testlang.LangCPP},
		Seed:    7,
	}
	suite, err := llm4vv.BuildSuite(suiteSpec)
	if err != nil {
		panic(err)
	}
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}

	llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		panic(err)
	}
	base := pipeline.Config{
		Tools: agent.NewTools(spec.OpenMP),
		Judge: &judge.Judge{
			LLM:     llm,
			Style:   judge.AgentDirect,
			Dialect: spec.OpenMP,
		},
	}

	run := func(label string, workers int, recordAll bool) []pipeline.FileResult {
		cfg := base
		// Per-stage specs address the built-in stages by name; uneven
		// pools (a wide judge behind narrow tool stages, say) are just
		// different Workers values per spec.
		cfg.Stages = []pipeline.StageSpec{
			{Name: pipeline.StageCompile, Workers: workers},
			{Name: pipeline.StageExec, Workers: workers},
			{Name: pipeline.StageJudge, Workers: workers},
		}
		cfg.RecordAll = recordAll
		start := time.Now()
		results, stats, err := pipeline.Run(context.Background(), cfg, inputs)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-28s workers=%d  wall=%8v  compiles=%d runs=%d judge-calls=%d\n",
			label, workers, time.Since(start).Round(time.Microsecond),
			stats.Compiles, stats.Executions, stats.JudgeCalls)
		return results
	}

	fmt.Printf("pipeline over %d files:\n\n", len(inputs))
	run("short-circuit, serial", 1, false)
	run("short-circuit, parallel", 8, false)
	run("record-all, serial", 1, true)
	results := run("record-all, parallel", 8, true)

	outcomes := make([]metrics.Outcome, len(results))
	for i, r := range results {
		outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: r.Valid}
	}
	fmt.Println()
	fmt.Println(report.PerIssueTable("Pipeline scorecard", metrics.Score(spec.OpenMP, outcomes)))

	// Where did each invalid file get caught?
	caught := map[string]int{}
	for i, r := range results {
		if suite[i].Issue == probe.IssueNone {
			continue
		}
		switch {
		case !r.CompileOK:
			caught["compile stage"]++
		case r.ExecRan && !r.ExecOK:
			caught["execute stage"]++
		case r.Verdict == judge.Invalid:
			caught["judge stage"]++
		default:
			caught["escaped"]++
		}
	}
	fmt.Println("invalid files by catching stage:")
	for _, stage := range []string{"compile stage", "execute stage", "judge stage", "escaped"} {
		fmt.Printf("  %-14s %d\n", stage, caught[stage])
	}
}

// Agent judge example: judge the same file with all three prompting
// styles — direct (no tools), agent-direct (LLMJ 1) and agent-indirect
// (LLMJ 2) — and print the full prompts and responses, showing exactly
// what changes between the paper's configurations.
package main

import (
	"context"
	"fmt"
	"strings"

	llm4vv "repro"
	"repro/internal/agent"
	"repro/internal/corpus"
	"repro/internal/judge"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/testlang"
)

func main() {
	// A test whose flaw only shows at run time: the map clause removed
	// from an OpenMP target construct (negative probing issue 0).
	file, err := corpus.InstantiateTemplate(spec.OpenMP, "target_saxpy", testlang.LangC, 5)
	if err != nil {
		panic(err)
	}
	mutated := probe.Mutate(file, probe.IssueDirective, rng.New(11))
	fmt.Printf("mutation: %s\n\n", mutated.Mutation)

	tools := agent.NewTools(spec.OpenMP)
	outcome := tools.Gather(mutated.Name, mutated.Source, mutated.Lang)
	llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		panic(err)
	}

	configs := []struct {
		label string
		style judge.Style
		info  *judge.ToolInfo
	}{
		{"direct analysis (no tools, Part One)", judge.Direct, nil},
		{"agent-based direct analysis (LLMJ 1)", judge.AgentDirect, &outcome.Info},
		{"agent-based indirect analysis (LLMJ 2)", judge.AgentIndirect, &outcome.Info},
	}
	for _, c := range configs {
		j := &judge.Judge{LLM: llm, Style: c.style, Dialect: spec.OpenMP}
		ev, err := j.Evaluate(context.Background(), mutated.Source, c.info)
		if err != nil {
			panic(err)
		}
		rule := strings.Repeat("=", 70)
		fmt.Println(rule)
		fmt.Println(c.label)
		fmt.Println(rule)
		fmt.Println("--- prompt (code elided) ---")
		fmt.Println(elideCode(ev.Prompt))
		fmt.Println("--- model response ---")
		fmt.Println(ev.Response)
		fmt.Printf(">>> parsed verdict: %v (ground truth: invalid)\n\n", ev.Verdict)
	}
}

// elideCode trims the code block from a prompt so the transcript stays
// readable.
func elideCode(prompt string) string {
	idx := strings.LastIndex(prompt, "Here is the code")
	if idx < 0 {
		return prompt
	}
	if nl := strings.IndexByte(prompt[idx:], '\n'); nl >= 0 {
		return prompt[:idx+nl] + "\n    [... test source elided ...]"
	}
	return prompt
}

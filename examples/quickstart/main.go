// Quickstart: generate one V&V test, break it with negative probing,
// then watch the toolchain and the LLM judge react — the whole LLM4VV
// loop on a single file.
package main

import (
	"context"
	"fmt"

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
	// 1. Generate a valid OpenACC reduction test from the corpus.
	file, err := corpus.InstantiateTemplate(spec.OpenACC, "reduction_sum", testlang.LangC, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println("=== generated test ===")
	fmt.Println(file.Source)

	// 2. Compile and run it with the simulated toolchain.
	tools := agent.NewTools(spec.OpenACC)
	outcome := tools.Gather(file.Name, file.Source, file.Lang)
	fmt.Printf("compile rc=%d, run rc=%d, stdout=%q\n\n",
		outcome.Info.CompileRC, outcome.Info.RunRC, outcome.Info.RunStdout)

	// 3. Judge it with the agent-based LLM judge (LLMJ 1).
	llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		panic(err)
	}
	j := &judge.Judge{
		LLM:     llm,
		Style:   judge.AgentDirect,
		Dialect: spec.OpenACC,
	}
	ev, err := j.Evaluate(context.Background(), file.Source, &outcome.Info)
	if err != nil {
		panic(err)
	}
	fmt.Println("=== judge verdict on the valid test ===")
	fmt.Println(ev.Response)

	// 4. Now inject an error (negative probing issue 0: remove the
	//    device memory allocation) and judge again.
	mutated := probe.Mutate(file, probe.IssueDirective, rng.New(7))
	fmt.Printf("=== mutation applied: %s ===\n", mutated.Mutation)
	outcome2 := tools.Gather(mutated.Name, mutated.Source, mutated.Lang)
	fmt.Printf("compile rc=%d", outcome2.Info.CompileRC)
	if outcome2.Info.Ran {
		fmt.Printf(", run rc=%d", outcome2.Info.RunRC)
	}
	fmt.Println()
	ev2, err := j.Evaluate(context.Background(), mutated.Source, &outcome2.Info)
	if err != nil {
		panic(err)
	}
	fmt.Println("=== judge verdict on the mutated test ===")
	fmt.Println(ev2.Response)
	fmt.Printf("summary: valid file judged %v, mutated file judged %v\n", ev.Verdict, ev2.Verdict)
	if ev2.Verdict == judge.Valid {
		fmt.Println("(the judge was fooled — exactly the fallibility the paper measures;")
		fmt.Println(" the validation pipeline exists because the toolchain stages catch")
		fmt.Println(" most of what the judge rationalises away)")
	}
}

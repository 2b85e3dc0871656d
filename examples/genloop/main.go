// Generation-loop example: the paper's future work, running. The LLM
// authors candidate tests for every supported feature; the validation
// pipeline accepts or rejects each; the campaign reports how much
// trust the filter adds over raw generation.
package main

import (
	"context"
	"fmt"

	llm4vv "repro"
	"repro/internal/spec"
)

func main() {
	// One Runner, configured once, dispatching cancellable
	// experiments.
	runner, err := llm4vv.NewRunner(
		llm4vv.WithBackend(llm4vv.DefaultBackend),
		llm4vv.WithSeed(llm4vv.DefaultModelSeed),
	)
	if err != nil {
		panic(err)
	}
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		fmt.Printf("==== %v test-generation campaign ====\n", d)
		r, err := runner.GenerationLoop(context.Background(), d, 2)
		if err != nil {
			panic(err)
		}

		fmt.Printf("candidates generated: %d (sound %d, defective %d)\n",
			len(r.Candidates), r.SoundGenerated, r.DefectiveGenerated)
		fmt.Printf("accepted into suite:  %d\n", len(r.Accepted))
		fmt.Printf("raw sound rate:       %5.1f%%  (the author alone)\n", 100*r.RawSoundRate())
		fmt.Printf("accepted precision:   %5.1f%%  (after pipeline filtering)\n", 100*r.AcceptancePrecision())
		fmt.Printf("defect catch rate:    %5.1f%%\n", 100*r.DefectCatchRate())
		fmt.Printf("sound-test yield:     %5.1f%%\n", 100*r.SoundYield())

		// Defects that slipped through, if any — the judge's remaining
		// blind spot.
		slipped := map[string]int{}
		for _, c := range r.Accepted {
			if c.Defect != "" {
				slipped[c.Defect]++
			}
		}
		if len(slipped) > 0 {
			fmt.Println("defects admitted despite the filter:")
			for label, n := range slipped {
				fmt.Printf("  %-28s %d\n", label, n)
			}
		}
		fmt.Println()
	}
	fmt.Println("The filter's residual blind spot mirrors the paper's Tables IV/VII:")
	fmt.Println("defects that leave a compilable, clean-running test (removed data")
	fmt.Println("clauses masked by implicit movement, missing verification logic)")
	fmt.Println("are exactly what survives into the generated suite.")
}

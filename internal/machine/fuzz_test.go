package machine

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/corpus"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// fuzzStepLimit bounds each fuzzed run, so a runaway loop ends fast.
const fuzzStepLimit = 200_000

// FuzzCompileRun drives the compiler and the machine together on every
// C input the dialect's compiler accepts: the run returns a Result
// instead of panicking, takes at most its step limit, and takes all of
// it exactly when it traps on the limit, and a second run of the same
// object is identical. The seeds are the corpus templates of both
// dialects; plain go test runs those, go test -fuzz FuzzCompileRun
// searches past them.
func FuzzCompileRun(f *testing.F) {
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		for _, id := range corpus.TemplateIDs(d) {
			tf, err := corpus.InstantiateTemplate(d, id, testlang.LangC, 0)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(tf.Source, d == spec.OpenMP)
		}
	}
	f.Fuzz(func(t *testing.T, src string, openmp bool) {
		dialect := spec.OpenACC
		if openmp {
			dialect = spec.OpenMP
		}
		res := compiler.ForDialect(dialect).Compile("fuzz.c", src, testlang.LangC)
		if !res.OK || res.Object == nil {
			return
		}
		opts := Options{StepLimit: fuzzStepLimit}
		first := Run(res.Object, opts)
		if first.Steps > fuzzStepLimit || first.Trap == "step-limit" && first.Steps != fuzzStepLimit {
			t.Fatalf("steps %d trap %q at StepLimit %d", first.Steps, first.Trap, fuzzStepLimit)
		}
		if again := Run(res.Object, opts); *again != *first {
			t.Fatalf("runs differ:\n%+v\n%+v", *first, *again)
		}
	})
}

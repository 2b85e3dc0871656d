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
// input the dialect's compiler accepts as C or as C++, which scope a
// declaration as a statement's bare body differently: the run returns
// a Result instead of panicking, takes at most its step limit, and
// takes all of it exactly when it traps on the limit, a second run of
// the same object is identical, and so is a run without loop kernels.
// The seeds are the corpus templates of both dialects and the files in
// testdata/fuzz (the kernel-* ones are TestLoopKernels' rows); plain go
// test runs those, go test -fuzz FuzzCompileRun searches past them.
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
		for _, lang := range []testlang.Language{testlang.LangC, testlang.LangCPP} {
			res := compiler.ForDialect(dialect).Compile("fuzz"+lang.Ext(), src, lang)
			if !res.OK || res.Object == nil {
				continue
			}
			opts := Options{StepLimit: fuzzStepLimit}
			first := Run(res.Object, opts)
			if first.Steps > fuzzStepLimit || first.Trap == "step-limit" && first.Steps != fuzzStepLimit {
				t.Fatalf("%s: steps %d trap %q at StepLimit %d", lang, first.Steps, first.Trap, fuzzStepLimit)
			}
			if again := Run(res.Object, opts); *again != *first {
				t.Fatalf("%s: runs differ:\n%+v\n%+v", lang, *first, *again)
			}
			if off, _ := execute(res.Object, opts, false); *off != *first {
				t.Fatalf("%s: with loop kernels\n%+v\nwithout\n%+v", lang, *first, *off)
			}
		}
	})
}

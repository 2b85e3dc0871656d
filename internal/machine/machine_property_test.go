package machine

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/corpus"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// TestWorkerCountInvariance is the machine's central correctness
// property: for every (non-brittle) corpus template, the observable
// result — return code and stdout — must be identical across parallel
// widths. A violation means the privatization/reduction/data-movement
// model races or mis-shares.
func TestWorkerCountInvariance(t *testing.T) {
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		ref := compiler.Reference(d)
		for _, id := range corpus.TemplateIDs(d) {
			for seed := uint64(0); seed < 2; seed++ {
				tf, err := corpus.InstantiateTemplate(d, id, testlang.LangC, seed)
				if err != nil {
					t.Fatal(err)
				}
				if tf.Brittle {
					continue // exact-float template is deliberately width-sensitive
				}
				res := ref.Compile(tf.Name, tf.Source, tf.Lang)
				if !res.OK {
					t.Fatalf("%s: %s", tf.Name, res.Stderr)
				}
				base := Run(res.Object, Options{Workers: 1})
				for _, w := range []int{2, 4, 16} {
					got := Run(res.Object, Options{Workers: w})
					if got.ReturnCode != base.ReturnCode {
						t.Errorf("%v/%s seed %d: rc %d at w=1 but %d at w=%d\nstderr: %s",
							d, id, seed, base.ReturnCode, got.ReturnCode, w, got.Stderr)
					}
					if got.Stdout != base.Stdout {
						t.Errorf("%v/%s seed %d: stdout differs at w=%d: %q vs %q",
							d, id, seed, w, base.Stdout, got.Stdout)
					}
				}
			}
		}
	}
}

// TestRepeatedRunsIdentical: the machine must be deterministic run to
// run (same object, same options), including its device data
// environment bookkeeping.
func TestRepeatedRunsIdentical(t *testing.T) {
	tf, err := corpus.InstantiateTemplate(spec.OpenACC, "enter_exit_update", testlang.LangC, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := compiler.Reference(spec.OpenACC).Compile(tf.Name, tf.Source, tf.Lang)
	if !res.OK {
		t.Fatal(res.Stderr)
	}
	first := Run(res.Object, Options{})
	for i := 0; i < 5; i++ {
		again := Run(res.Object, Options{})
		if again.ReturnCode != first.ReturnCode || again.Stdout != first.Stdout {
			t.Fatalf("run %d diverged: rc %d/%d stdout %q/%q",
				i, first.ReturnCode, again.ReturnCode, first.Stdout, again.Stdout)
		}
	}
}

// TestPresenceTableDrainsAfterRun: structured regions must release
// every device mirror they create; a leak would make repeated regions
// observe stale data.
func TestPresenceTableDrains(t *testing.T) {
	src := `
#include <stdlib.h>
#define N 64
int main() {
    int *a = (int *)malloc(N * sizeof(int));
    for (int i = 0; i < N; i++) a[i] = 1;
    for (int round = 0; round < 3; round++) {
#pragma acc data copy(a[0:N])
        {
#pragma acc parallel loop present(a[0:N])
            for (int i = 0; i < N; i++) a[i] = a[i] + 1;
        }
    }
    return a[0] == 4 ? 0 : 1;
}
`
	res := compiler.ForDialect(spec.OpenACC).Compile("t.c", src, testlang.LangC)
	if !res.OK {
		t.Fatal(res.Stderr)
	}
	r := Run(res.Object, Options{})
	if r.ReturnCode != 0 {
		t.Fatalf("rc = %d err=%s", r.ReturnCode, r.Stderr)
	}
}

// TestMutatedCorpusNeverPanics: every mutation class applied to every
// template must produce a file the toolchain either rejects or the
// machine executes to a Result — no Go-level panics, no hangs (the
// step limit bounds runaways).
func TestMutatedCorpusNeverPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("broad sweep")
	}
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		pers := compiler.ForDialect(d)
		files := corpus.Generate(corpus.Config{Dialect: d, Seed: 1234,
			Langs: []testlang.Language{testlang.LangC, testlang.LangCPP}}, 48)
		for i, f := range files {
			// probe.Mutate is exercised in its own package; here we do
			// cruder textual damage to stress the machine's robustness.
			variants := []string{
				f.Source,
				f.Source[:len(f.Source)*3/4],
				f.Source[len(f.Source)/4:],
				f.Source + "\n}}}\n",
			}
			for vi, src := range variants {
				res := pers.Compile(f.Name, src, f.Lang)
				if !res.OK {
					continue
				}
				r := Run(res.Object, Options{StepLimit: 500000})
				_ = r.ReturnCode // reaching here without panic is the assertion
				_ = vi
			}
			_ = i
		}
	}
}

func BenchmarkInterpreterVecAdd(b *testing.B) {
	benchTemplate(b, spec.OpenACC, "parallel_loop_vecadd")
}

func BenchmarkInterpreterMatmul(b *testing.B) {
	benchTemplate(b, spec.OpenMP, "collapse_matmul_target")
}

// BenchmarkInterpreterJacobi sweeps a 1-D stencil over device mirrors
// of heap arrays, then checks it against a host sweep: loop kernels
// with index offsets, work-shared and serial.
func BenchmarkInterpreterJacobi(b *testing.B) {
	benchTemplate(b, spec.OpenACC, "jacobi_sweeps")
}

// BenchmarkInterpreterRoutine is a loop whose body calls a user
// function, so each iteration pays a call: a callee exec, frame and
// return unwind.
func BenchmarkInterpreterRoutine(b *testing.B) {
	benchTemplate(b, spec.OpenACC, "routine_seq")
}

// benchTemplate compiles corpus template id of dialect d, at seed 1,
// runs it b.N times and reports the interpreter's cost per step.
func benchTemplate(b *testing.B, d spec.Dialect, id string) {
	tf, err := corpus.InstantiateTemplate(d, id, testlang.LangC, 1)
	if err != nil {
		b.Fatal(err)
	}
	res := compiler.Reference(d).Compile(tf.Name, tf.Source, tf.Lang)
	if !res.OK {
		b.Fatal(res.Stderr)
	}
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		r := Run(res.Object, Options{})
		if r.ReturnCode != 0 {
			b.Fatal(r.Stderr)
		}
		steps += r.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

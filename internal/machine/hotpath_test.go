package machine

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/spec"
)

// Every array cell is a value and every step copies several, so the
// layout is part of the interpreter's cost model.
func TestValueLayoutCompact(t *testing.T) {
	if n := unsafe.Sizeof(value{}); n > 40 {
		t.Fatalf("unsafe.Sizeof(value{}) = %d, want <= 40", n)
	}
}

// Strings are printf arguments only: %s of a string prints it, %s of
// anything else prints "", and a non-literal format is evaluated.
func TestStringValues(t *testing.T) {
	r := run(t, `
#include <stdio.h>
int main() {
    int n = 2;
    printf("[%s][%s]\n", "abc", n);
    printf(n > 1 ? "big %d\n" : "small %d\n", n);
    printf(n);
    return 0;
}
`, spec.OpenACC)
	if r.ReturnCode != 0 || r.Stdout != "[abc][]\nbig 2\n" {
		t.Fatalf("rc = %d stdout = %q stderr = %s", r.ReturnCode, r.Stdout, r.Stderr)
	}
}

func TestStepLimitIsExactForSerialCode(t *testing.T) {
	src := `
#include <stdio.h>
int main() {
    int a = 3;
    int b = a * 7 + 1;
    printf("%d\n", b);
    return b - 22;
}
`
	res := compileMaybe(src, spec.OpenACC)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	full := Run(res.Object, Options{})
	if full.ReturnCode != 0 || full.Steps == 0 {
		t.Fatalf("rc = %d steps = %d, stderr = %s", full.ReturnCode, full.Steps, full.Stderr)
	}
	exact := Run(res.Object, Options{StepLimit: full.Steps})
	if exact.ReturnCode != 0 || exact.Steps != full.Steps || exact.Stdout != full.Stdout {
		t.Fatalf("StepLimit == Steps: rc = %d steps = %d stdout = %q, want rc 0 steps %d stdout %q",
			exact.ReturnCode, exact.Steps, exact.Stdout, full.Steps, full.Stdout)
	}
	short := Run(res.Object, Options{StepLimit: full.Steps - 1})
	if short.ReturnCode != 124 || short.Trap != "step-limit" {
		t.Fatalf("StepLimit == Steps-1: rc = %d trap = %q, want 124 step-limit", short.ReturnCode, short.Trap)
	}
	if short.Steps != full.Steps-1 {
		t.Fatalf("StepLimit == Steps-1: ran %d steps, want %d", short.Steps, full.Steps-1)
	}
}

func TestStepLimitBoundsParallelWorkers(t *testing.T) {
	src := `
int main() {
    int n = 64;
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        int x = 1;
        while (x) { x = 1; }
    }
    return 0;
}
`
	res := compileMaybe(src, spec.OpenMP)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	const limit = 200_000
	for i := 0; i < 10; i++ {
		r := Run(res.Object, Options{Workers: 4, StepLimit: limit})
		if r.ReturnCode != 124 || r.Trap != "step-limit" {
			t.Fatalf("rc = %d trap = %q, want 124 step-limit", r.ReturnCode, r.Trap)
		}
		if r.Steps > limit {
			t.Fatalf("ran %d steps past StepLimit %d", r.Steps, limit)
		}
		if !strings.Contains(r.Stderr, "time limit") {
			t.Fatalf("stderr = %q", r.Stderr)
		}
	}
}

// Budgets claiming from one limit on concurrent goroutines spend it
// exactly: none steps past the limit, and every claimed step is either
// spent or returned.
func TestBudgetsShareLimitConcurrently(t *testing.T) {
	const limit, workers = 100_003, 8
	in := &interp{}
	in.remaining.Store(limit)
	spent := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := &budget{in: in}
			defer func() {
				b.release()
				if _, ok := recover().(trapSignal); !ok {
					t.Errorf("worker %d ended without a step-limit trap", w)
				}
			}()
			for {
				b.step()
				spent[w]++
				if spent[w]%5000 == 0 {
					b.release() // as a worker forking a nested region does
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, n := range spent {
		total += n
	}
	if total != limit || in.remaining.Load() != 0 {
		t.Fatalf("spent %d steps with %d unclaimed, want %d and 0", total, in.remaining.Load(), limit)
	}
}

func TestStepsIndependentOfWorkers(t *testing.T) {
	src := `
#include <stdio.h>
int main() {
    int n = 1000;
    double a[1000];
    double sum = 0.0;
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        a[i] = i * 0.5;
    }
    #pragma omp parallel for reduction(+:sum)
    for (int i = 0; i < n; i++) {
        sum += a[i];
    }
    printf("%.1f\n", sum);
    return 0;
}
`
	res := compileMaybe(src, spec.OpenMP)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	one := Run(res.Object, Options{Workers: 1})
	four := Run(res.Object, Options{Workers: 4})
	if one.ReturnCode != 0 || four.ReturnCode != 0 {
		t.Fatalf("rc = %d / %d, stderr = %s%s", one.ReturnCode, four.ReturnCode, one.Stderr, four.Stderr)
	}
	if one.Stdout != "249750.0\n" || four.Stdout != one.Stdout {
		t.Fatalf("stdout = %q / %q", one.Stdout, four.Stdout)
	}
	if one.Steps != four.Steps {
		t.Fatalf("Steps = %d at Workers 1 but %d at Workers 4", one.Steps, four.Steps)
	}
}

// Blocks without declarations share the enclosing scope; anything that
// declares, directly or through a bare if/while/for body, still gets
// its own, so shadowing is unchanged.
func TestScopesOnlyWhereDeclared(t *testing.T) {
	r := run(t, `
#include <stdio.h>
int main() {
    int x = 1;
    int s = 0;
    { int x = 2; s += x; }
    { if (s) int x = 3; }
    for (int i = 0; i < 3; i++) { s += i; }
    int j;
    { for (j = 0; j < 2; j++) int x = 4; }
    { while (s > 100) int x = 5; }
    { s += x; }
    printf("%d %d %d\n", x, s, j);
    return 0;
}
`, spec.OpenACC)
	if r.ReturnCode != 0 || r.Stdout != "1 6 2\n" {
		t.Fatalf("rc = %d stdout = %q stderr = %s", r.ReturnCode, r.Stdout, r.Stderr)
	}
}

package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/spec"
)

// Every array cell is a value and every closure of the lowered code
// returns one, so the layout is part of the interpreter's cost model.
// The Go compiler keeps a struct in registers only if it has at most 4
// fields and at most 32 bytes (ssa.CanSSA in cmd/compile); one field
// or byte more and every value, place and cell a closure returns,
// passes or holds across a call goes through memory.
func TestValueLayoutCompact(t *testing.T) {
	for _, x := range []any{value{}, place{}, cell{}} {
		typ := reflect.TypeOf(x)
		if n, f := typ.Size(), typ.NumField(); n > 32 || f > 4 {
			t.Errorf("%v: %d bytes in %d fields, want at most 32 bytes in 4 fields", typ, n, f)
		}
	}
	if n := unsafe.Sizeof(value{}); n != 24 {
		t.Errorf("unsafe.Sizeof(value{}) = %d, want 24", n)
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

// Region workers run one after another on one step counter, so a run
// that hits the limit inside a parallel region traps at exactly step
// StepLimit+1, at any width.
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
	for _, w := range []int{1, 4, 16} {
		r := Run(res.Object, Options{Workers: w, StepLimit: limit})
		if r.ReturnCode != 124 || r.Trap != "step-limit" {
			t.Fatalf("Workers %d: rc = %d trap = %q, want 124 step-limit", w, r.ReturnCode, r.Trap)
		}
		if r.Steps != limit {
			t.Fatalf("Workers %d: ran %d steps, want exactly StepLimit %d", w, r.Steps, limit)
		}
		if !strings.Contains(r.Stderr, "time limit") {
			t.Fatalf("Workers %d: stderr = %q", w, r.Stderr)
		}
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

// A declaration in a block, in an if's, for's or while's braced body,
// or in a block of its own, shadows an outer name only inside it.
func TestScopesOnlyWhereDeclared(t *testing.T) {
	r := run(t, `
#include <stdio.h>
int main() {
    int x = 1;
    int s = 0;
    { int x = 2; s += x; }
    { if (s) { int x = 3; } }
    for (int i = 0; i < 3; i++) { s += i; }
    int j;
    { for (j = 0; j < 2; j++) { int x = 4; } }
    { while (s > 100) { int x = 5; } }
    { s += x; }
    printf("%d %d %d\n", x, s, j);
    return 0;
}
`, spec.OpenACC)
	if r.ReturnCode != 0 || r.Stdout != "1 6 2\n" {
		t.Fatalf("rc = %d stdout = %q stderr = %s", r.ReturnCode, r.Stdout, r.Stderr)
	}
}

// Per-iteration work allocates nothing: an element store, a compound
// assign, a postfix increment, a store through a pointer, a scalar
// update and a declaration in the loop body cost the same allocations
// whether the loop runs 16 times or 4096 times.
func TestLoopAllocsIndependentOfTripCount(t *testing.T) {
	allocs := func(n int) float64 {
		res := compileMaybe(fmt.Sprintf(`
int main() {
    int n = %d;
    double a[4096], b[4096];
    double *p = &a[0];
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        a[i] = i * 0.5;
        b[i] += 1.0;
        a[i]++;
        *p = *p + 1.0;
        double t = b[i];
        s += i + t;
    }
    return s > 0.0 ? 0 : 1;
}
`, n), spec.OpenACC)
		if !res.OK {
			t.Fatalf("compile failed:\n%s", res.Stderr)
		}
		if r := Run(res.Object, Options{}); r.ReturnCode != 0 {
			t.Fatalf("trip count %d: rc = %d stderr = %s", n, r.ReturnCode, r.Stderr)
		}
		return testing.AllocsPerRun(5, func() { Run(res.Object, Options{}) })
	}
	short, long := allocs(16), allocs(4096)
	if long-short > 2 {
		t.Fatalf("allocs per run: %.0f at 16 iterations, %.0f at 4096; the loop body allocates", short, long)
	}
}

// A private clause's binding survives the implicit privatization of
// written scalars: every worker's x starts at the private zero, never
// at the host's 7, and the host's x is untouched.
func TestPrivateClauseNotReplacedByImplicitCopy(t *testing.T) {
	r := run(t, `
#include <stdio.h>
int main() {
    int x = 7;
    int seen[64];
    #pragma omp parallel for private(x)
    for (int i = 0; i < 64; i++) {
        seen[i] = x;
        x = 1;
    }
    for (int i = 0; i < 64; i++) {
        if (seen[i] == 7) return 1;
    }
    printf("%d\n", x);
    return 0;
}
`, spec.OpenMP)
	if r.ReturnCode != 0 || r.Stdout != "7\n" {
		t.Fatalf("rc = %d stdout = %q stderr = %s", r.ReturnCode, r.Stdout, r.Stderr)
	}
}

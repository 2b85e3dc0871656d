package machine

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// kernelRows are programs whose loops a kernel may run, each next to
// what must send it back to the generic closures, compiled for the
// row's dialect (OpenACC unless it says). kernel says whether some loop
// of the row runs in a kernel at every width; a row whose every loop
// must fall back says false.
var kernelRows = []struct {
	name    string
	dialect spec.Dialect
	src     string
	kernel  bool
	// limit is the row's step limit, set only for a row that hits it.
	limit int64
	// stdout, when set, is what gcc prints for the row.
	stdout string
}{
	{name: "written scalar as an index", src: `int main() {
    int a[8] = {0};
    int j = 0;
    for (int i = 0; i < 8; i++) {
        a[j] = i;
        j = i;
    }
    printf("%d %d %d\n", a[0], a[6], j);
    return 0;
}`},
	{name: "written scalar as the bound", src: `int main() {
    int n = 8;
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i;
        n--;
    }
    printf("%d %d\n", s, n);
    return 0;
}`},
	{name: "out of bounds on the last iteration only", src: `int main() {
    double a[8];
    double s = 0.0;
    for (int i = 0; i < 8; i++) a[i] = i * 0.5;
    printf("%g\n", a[7]);
    for (int i = 0; i <= 8; i++) s += a[i];
    printf("%g\n", s);
    return 0;
}`, kernel: true},
	{name: "row out of bounds on the last iteration only", src: `int main() {
    int m[4][3];
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 3; j++) m[i][j] = i * 3 + j;
    int s = 0;
    int k = 2;
    for (int i = 0; i < 3; i++) s += m[i + 1][k - 3];
    printf("%d\n", s);
    for (int i = 0; i < 4; i++) s += m[i + 1][k - 3];
    printf("%d\n", s);
    return 0;
}`, kernel: true},
	{name: "last index past its row but inside the block", src: `int main() {
    int m[4][3];
    for (int i = 0; i < 12; i++) m[0][i] = i;
    int s = 0;
    for (int i = 1; i < 4; i++) s += m[i - 1][i + 1] * m[0][i - 1];
    printf("%d %d\n", s, m[3][2]);
    return 0;
}`, kernel: true},
	{name: "freed block", src: `int main() {
    int *p = (int *)malloc(8 * sizeof(int));
    for (int i = 0; i < 8; i++) p[i] = i;
    free(p);
    int s = 0;
    for (int i = 0; i < 8; i++) s += p[i];
    printf("%d\n", s);
    return 0;
}`, kernel: true},
	{name: "int and float mix", src: `int main() {
    int a[6] = {3, -4, 5, -6, 7, -8};
    double d[6];
    long l = 0;
    char c = 0;
    int k = 0;
    double x = 0.0;
    for (int i = 0; i < 6; i++) {
        x += a[i] * 0.5 + i / 4;
        k -= a[i] % 4;
        d[i] = k / 2 + x;
        a[i] *= 1.75;
        a[i] += x;
        l = l * 1000 + a[i];
        c = x * 100;
        x = -x + (double)k;
        k = (char)(k * 57) + sqrt(fabs(x));
    }
    printf("%g %d %d %ld %d %g %g\n", x, k, a[5], l, c, d[0], d[5]);
    return 0;
}`, kernel: true, stdout: "-102.5 9 79 5987103994000079 -122 0.5 89.5\n"},
	{name: "int scalar turned float", src: `int main() {
    int u = 0;
    u += 0.5;
    for (int i = 0; i < 4; i++) u += i;
    int v = 1;
    for (int i = 0; i < 4; i++) v += 0.25;
    printf("%d %d\n", u, v);
    return 0;
}`, kernel: true, stdout: "6 1\n"},
	{name: "zero trips", src: `int main() {
    int a[4] = {1, 2, 3, 4};
    int s = 0;
    int i = 9;
    for (i = 4; i < 4; i++) s += a[i];
    for (int k = 0; k > 0; k--) s += a[k];
    printf("%d %d\n", s, i);
    return 0;
}`, kernel: true},
	{name: "decreasing", src: `int main() {
    int a[8];
    int b[8];
    int i;
    for (i = 7; i >= 0; i--) a[i] = i * i;
    for (i = 7; i > 0; i -= 2) b[i] = a[i - 1] - a[i];
    for (i = 8; i != 0; i = i - 1) b[i - 1] += 1;
    for (i = 0; 6 > i; ++i) a[i + 2] -= b[i];
    printf("%d %d %d %d %d\n", a[7], b[7], b[1], a[2], i);
    return 0;
}`, kernel: true},
	{name: "not-equal loop that never reaches its bound", limit: 3000, src: `int main() {
    int s = 0;
    for (int i = 1; i != 8; i += 2) s += i;
    printf("%d\n", s);
    return 0;
}`},
	{name: "if bodies", src: `int main() {
    double a[16];
    int errs = 0;
    int odd = 0;
    for (int i = 0; i < 16; i++) a[i] = i % 3 * 1.5;
    for (int i = 0; i < 16; i++) {
        if (a[i] > 1.0) errs++;
        if (i % 2) { odd += i; a[i] = -a[i]; } else a[i] *= 2;
    }
    printf("%d %d %g %g\n", errs, odd, a[5], a[6]);
    return 0;
}`, kernel: true},
	{name: "declared temporaries", src: `int main() {
    double in[10];
    double out[10];
    int errs = 0;
    for (int i = 0; i < 10; i++) in[i] = (i * 7) % 17;
    for (int i = 1; i < 10 - 1; i++) {
        double expect = (in[i - 1] + in[i] + in[i + 1]) / 3.0;
        int t;
        out[i] = expect;
        t = expect;
        if (t > 8) errs++;
    }
    printf("%d %g\n", errs, out[4]);
    return 0;
}`, kernel: true},
	{name: "calls, outer loops and two-variable indices stay generic", src: `int twice(int x) { return 2 * x; }
int main() {
    int a[4] = {1, 2, 3, 4};
    int s = 0;
    for (int i = 0; i < 4; i++) s += twice(a[i]);
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++) s += a[i + j];
    printf("%d\n", s);
    return 0;
}`},
	{name: "device mirrors", dialect: spec.OpenACC, src: `int main() {
    double *x = (double *)malloc(64 * sizeof(double));
    double *y = (double *)malloc(64 * sizeof(double));
    for (int i = 0; i < 64; i++) { x[i] = i; y[i] = 0.0; }
    #pragma acc data copyin(x[0:64]) copy(y[0:64])
    {
        #pragma acc parallel loop present(x[0:64], y[0:64])
        for (int i = 1; i < 64 - 1; i++) {
            y[i] = (x[i - 1] + x[i + 1]) / 2.0;
        }
        for (int i = 0; i < 64; i++) y[i] = -1.0;
    }
    printf("%g %g %g\n", y[0], y[1], y[62]);
    return 0;
}`, kernel: true},
	{name: "unmapped heap pointer on an OpenMP device", dialect: spec.OpenMP, src: `int main() {
    double *x = (double *)malloc(16 * sizeof(double));
    for (int i = 0; i < 16; i++) x[i] = i;
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 16; i++) {
        x[i] = x[i] * 2.0;
    }
    printf("%g\n", x[3]);
    return 0;
}`, kernel: true},
	{name: "chunks", dialect: spec.OpenMP, src: `int main() {
    int n = 37;
    double a[37];
    double s = 0.0;
    int hits = 0;
    #pragma omp parallel for
    for (int i = 0; i < n; i++) a[i] = i * 0.25;
    #pragma omp parallel for reduction(+:s) reduction(+:hits)
    for (int i = 2; i < n; i += 3) {
        s += a[i] * a[i - 2];
        if (a[i] > 4.0) hits++;
    }
    #pragma omp parallel num_threads(5)
    {
        #pragma omp for
        for (int i = n - 1; i >= 0; i--) a[i] = a[i] + 1.0;
    }
    printf("%g %d %g %g\n", s, hits, a[0], a[36]);
    return 0;
}`, kernel: true},
}

// TestLoopKernels runs every kernel row at Workers 1, 4 and 16, whole
// and cut by the step limits cutPoints gives: with and without
// kernels, each run's Result is the same.
func TestLoopKernels(t *testing.T) {
	for _, row := range kernelRows {
		t.Run(row.name, func(t *testing.T) {
			res := compiler.ForDialect(row.dialect).Compile("test.c",
				"#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n"+row.src, testlang.LangC)
			if !res.OK {
				t.Fatalf("compile failed:\n%s", res.Stderr)
			}
			for _, w := range []int{1, 4, 16} {
				full := sameWithoutKernels(t, res.Object, Options{Workers: w, StepLimit: row.limit}, row.kernel)
				if (full.Trap == "step-limit") != (row.limit > 0) {
					t.Fatalf("Workers %d: trap %q at step limit %d", w, full.Trap, row.limit)
				}
				if row.stdout != "" && full.Stdout != row.stdout {
					t.Fatalf("Workers %d: printed %q, want %q", w, full.Stdout, row.stdout)
				}
				for _, limit := range cutPoints(full.Steps) {
					sameWithoutKernels(t, res.Object, Options{Workers: w, StepLimit: limit}, false)
				}
			}
		})
	}
}

// cutPoints are step limits across a run of n steps: every one of its
// last 40 and of its first 40, and 40 more spread between.
func cutPoints(n int64) []int64 {
	var out []int64
	for l := int64(1); l <= n; l++ {
		if l <= 40 || l > n-40 || l%max(n/40, 1) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// sameWithoutKernels runs obj with and without kernels, fails unless
// the two Results are equal and, when kernel is set, kernels took some
// of the steps, and returns the Result.
func sameWithoutKernels(t *testing.T, obj *compiler.Object, opts Options, kernel bool) *Result {
	t.Helper()
	on, inKernels := execute(obj, opts, true)
	off, none := execute(obj, opts, false)
	if *on != *off || none != 0 {
		t.Fatalf("%+v: with kernels\n%+v\nwithout\n%+v", opts, *on, *off)
	}
	if kernel && inKernels == 0 {
		t.Fatalf("%+v: no loop ran in a kernel", opts)
	}
	return on
}

// TestKernelLoopEnds pins where a loop kernel stops: it runs a loop
// whose budget covers the loop to its end, and leaves one step short of
// that to the generic closures, which trap there.
func TestKernelLoopEnds(t *testing.T) {
	src := `int main() {
    double a[64];
    for (int i = 0; i < 64; i++) a[i] = i * 0.5;
    return 0;
}`
	res := compiler.ForDialect(spec.OpenMP).Compile("test.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	full, inKernels := execute(res.Object, Options{}, true)
	// return 0 takes the last two steps; the loop ends just before.
	end := full.Steps - 2
	if full.ReturnCode != 0 || inKernels == 0 {
		t.Fatalf("whole run %+v, %d steps in kernels", *full, inKernels)
	}
	for _, c := range []struct {
		limit  int64
		kernel bool
	}{{end, true}, {end - 1, false}, {end / 2, false}} {
		r, in := execute(res.Object, Options{StepLimit: c.limit}, true)
		if want := c.kernel && in == inKernels || !c.kernel && in == 0; !want {
			t.Errorf("StepLimit %d: %d steps in kernels, kernel %v", c.limit, in, c.kernel)
		}
		if off, _ := execute(res.Object, Options{StepLimit: c.limit}, false); *r != *off {
			t.Errorf("StepLimit %d: with kernels %+v, without %+v", c.limit, *r, *off)
		}
	}
}

// TestSelfSteppedLoops pins that a work-shared loop stepped by an
// assignment of its variable plus or minus a stride prints what its
// serial form prints, at Workers 1 and 4.
func TestSelfSteppedLoops(t *testing.T) {
	for _, post := range []string{"i = i + 3", "i = 3 + i", "i += 3"} {
		for _, down := range []bool{false, true} {
			init, cond := "i = 1", "i < 40"
			if down {
				init, cond, post = "i = 39", "i >= 1", "i = i - 3"
			}
			loop := fmt.Sprintf("for (%s; %s; %s) { a[i] = i * 2; s += a[i]; }", init, cond, post)
			for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
				directive := "#pragma omp parallel for reduction(+:s)"
				if d == spec.OpenACC {
					directive = "#pragma acc parallel loop reduction(+:s)"
				}
				body := func(pragma string) string {
					return "#include <stdio.h>\nint main() {\n    int a[40] = {0};\n    int s = 0;\n    int i;\n" +
						pragma + "\n    " + loop + "\n    printf(\"%d %d %d\\n\", s, a[1], a[37]);\n    return 0;\n}\n"
				}
				serial := run(t, body(""), d)
				res := compileMaybe(body(directive), d)
				if !res.OK {
					t.Fatalf("%s %s: compile failed:\n%s", d, loop, res.Stderr)
				}
				for _, w := range []int{1, 4} {
					r := Run(res.Object, Options{Workers: w})
					if r.ReturnCode != 0 || r.Stdout != serial.Stdout {
						t.Errorf("%s %s at Workers %d: rc %d stdout %q, serial %q", d, loop, w, r.ReturnCode, r.Stdout, serial.Stdout)
					}
				}
			}
		}
	}
}

// TestPointerOrder pins <, <=, > and >= on pointers: two into one block
// order by element offset; into different blocks, or against null,
// every ordering is 0.
func TestPointerOrder(t *testing.T) {
	rows := []struct{ expr, want string }{
		{"p < q", "1"}, {"q < p", "0"}, {"p <= p", "1"}, {"q <= p", "0"},
		{"q > p", "1"}, {"p > q", "0"}, {"q >= q", "1"}, {"p >= q", "0"},
		{"p + 2 == q", "1"}, {"a + 4 > q", "1"},
		{"p < b", "0"}, {"b < p", "0"}, {"p >= b", "0"}, {"p > NULL", "0"}, {"NULL < p", "0"},
	}
	for _, row := range rows {
		src := "#include <stdio.h>\nint main() {\n    int a[4] = {1, 2, 3, 4};\n    int b[4];\n" +
			"    int *p = &a[1];\n    int *q = &a[3];\n    printf(\"%d\\n\", " + row.expr + ");\n    return 0;\n}\n"
		if r := run(t, src, spec.OpenMP); r.Stdout != row.want+"\n" {
			t.Errorf("%s: stdout %q, want %s", row.expr, r.Stdout, row.want)
		}
	}
	// A pointer-walking loop.
	walk := "#include <stdio.h>\nint main() {\n    int a[4] = {1, 2, 3, 4};\n    int s = 0;\n" +
		"    for (int *q = a; q < a + 4; q++) s += *q;\n    printf(\"%d\\n\", s);\n    return 0;\n}\n"
	if r := run(t, walk, spec.OpenMP); r.Stdout != "10\n" {
		t.Errorf("pointer walk: stdout %q, want 10", r.Stdout)
	}
}

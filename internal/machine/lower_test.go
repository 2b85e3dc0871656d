package machine

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// opPrologue declares every operand kind the operator rows combine:
// ints (one of them zero), floats, an array, a ref into it and a null
// pointer. Each row appends statements and the closing return.
const opPrologue = `#include <stdio.h>
#include <stdlib.h>
int main() {
    int i = 7, j = -3, z = 0;
    double x = 2.5, y = -0.5;
    int a[4] = {10, 20, 30, 40};
    int *p = &a[1];
    int *q = NULL;
`

// opRow is one tiny program and what the interpreter made of it before
// programs were lowered to closures: the lowered code must reproduce
// the return code, output, trap and step count exactly.
type opRow struct {
	name   string
	body   string
	rc     int
	stdout string
	trap   string
	steps  int64
}

var loweredOperatorRows = []opRow{
	// Binary arithmetic over int/int, int/float, float/float and
	// float/int.
	{name: "add", body: `printf("%d %g %g %g\n", i + j, i + x, x + y, y + i);`,
		rc: 0, stdout: "4 9.5 2 6.5\n", trap: "", steps: 38},
	{name: "sub", body: `printf("%d %g %g %g\n", i - j, i - x, x - y, y - i);`,
		rc: 0, stdout: "10 4.5 3 -7.5\n", trap: "", steps: 38},
	{name: "mul", body: `printf("%d %g %g %g\n", i * j, i * x, x * y, y * i);`,
		rc: 0, stdout: "-21 17.5 -1.25 -3.5\n", trap: "", steps: 38},
	{name: "div", body: `printf("%d %g %g %g %d\n", i / j, i / x, x / y, y / i, j / i);`,
		rc: 0, stdout: "-2 2.8 -5 -0.07142857142857142 0\n", trap: "", steps: 41},
	{name: "mod", body: `printf("%d %d %d %g\n", i % j, j % i, i % 4, x % 2);`,
		rc: 0, stdout: "1 -3 3 0\n", trap: "", steps: 38},
	{name: "bitwise", body: `printf("%d %d %d %g %g\n", i & j, i | j, i ^ j, i & x, x | y);`,
		rc: 0, stdout: "5 -1 -6 0 0\n", trap: "", steps: 41},
	{name: "shift", body: `printf("%d %d %d %d %g\n", i << 3, j >> 1, i << 65, i >> j, x << 1);`,
		rc: 0, stdout: "56 -2 14 0 0\n", trap: "", steps: 41},
	// Comparisons over the same kinds, plus equal operands.
	{name: "lt", body: `printf("%d %d %d %d %d\n", i < j, j < i, i < x, x < y, j < j);`,
		rc: 0, stdout: "0 1 0 0 0\n", trap: "", steps: 41},
	{name: "le", body: `printf("%d %d %d %d %d\n", i <= j, j <= i, i <= x, y <= x, j <= j);`,
		rc: 0, stdout: "0 1 0 1 1\n", trap: "", steps: 41},
	{name: "gt", body: `printf("%d %d %d %d %d\n", i > j, j > i, i > x, x > y, j > j);`,
		rc: 0, stdout: "1 0 1 1 0\n", trap: "", steps: 41},
	{name: "ge", body: `printf("%d %d %d %d %d\n", i >= j, j >= i, x >= i, y >= x, j >= j);`,
		rc: 0, stdout: "1 0 0 0 1\n", trap: "", steps: 41},
	{name: "eq", body: `printf("%d %d %d %d\n", i == j, i == 7, x == 2.5, i == x);`,
		rc: 0, stdout: "0 1 1 0\n", trap: "", steps: 38},
	{name: "ne", body: `printf("%d %d %d %d\n", i != j, i != 7, x != 2.5, y != x);`,
		rc: 0, stdout: "1 0 0 1\n", trap: "", steps: 38},
	// Logical operators short-circuit: the right side's increment runs
	// only when the left side does not decide.
	{name: "and", body: `printf("%d %d %d ", z && i++, i && x, x && y);
    printf("%d %d\n", i, i && j++ && z);
    printf("%d\n", j);`,
		rc: 0, stdout: "0 1 1 7 0\n-2\n", trap: "", steps: 45},
	{name: "or", body: `printf("%d %d %d ", i || j++, z || y, z || z);
    printf("%d %d\n", j, z || i++);
    printf("%d\n", i);`,
		rc: 0, stdout: "1 1 0 -3 1\n8\n", trap: "", steps: 43},
	// Unary operators.
	{name: "not", body: `printf("%d %d %d %d %d %d\n", !i, !z, !x, !p, !q, !!j);`,
		rc: 0, stdout: "0 1 0 0 1 1\n", trap: "", steps: 39},
	{name: "neg", body: `printf("%d %g %d %d\n", -i, -x, -z, -(-j));`,
		rc: 0, stdout: "-7 -2.5 0 -3\n", trap: "", steps: 35},
	{name: "bitnot", body: `printf("%d %d %d\n", ~i, ~j, ~z);`,
		rc: 0, stdout: "-8 2 -1\n", trap: "", steps: 32},
	{name: "deref", body: `int *r = p + 2;
    *p = *p + 1;
    printf("%d %d %d\n", *p, a[1], *r);`,
		rc: 0, stdout: "21 21 40\n", trap: "", steps: 44},
	{name: "addr", body: `int *r = &a[2];
    int *s = &i;
    printf("%d %d %d %d\n", *r, r == p + 1, *s, &a[0] == p - 1);`,
		rc: 0, stdout: "30 1 7 1\n", trap: "", steps: 49},
	// Prefix and postfix increments over an int, a float, a ref and an
	// array element.
	{name: "prefix", body: `printf("%d %d ", ++i, --j);
    printf("%g %g ", ++x, --y);
    printf("%d %d ", *++p, ++a[0]);
    printf("%d %d %g %d\n", i, j, x, a[0]);`,
		rc: 0, stdout: "8 -4 3.5 -1.5 30 11 8 -4 3.5 11\n", trap: "", steps: 47},
	{name: "postfix", body: `printf("%d %d ", i++, j--);
    printf("%g %g ", x++, y--);
    printf("%d %d ", *p++, a[3]--);
    printf("%d %d %g %g %d %d\n", i, j, x, y, *p, a[3]);`,
		rc: 0, stdout: "7 -3 2.5 -0.5 20 40 8 -4 3.5 -1.5 30 39\n", trap: "", steps: 50},
	// Compound assignment, including the conversions a store makes.
	{name: "assign", body: `int k;
    double d;
    k = x;
    d = i;
    a[0] = y;
    p = q;
    printf("%d %g %d %d\n", k, d, a[0], p == NULL);`,
		rc: 0, stdout: "2 7 0 1\n", trap: "", steps: 50},
	{name: "compound-int", body: `i += 2;
    printf("%d ", i);
    i -= j;
    printf("%d ", i);
    i *= 3;
    printf("%d ", i);
    i /= 4;
    printf("%d ", i);
    i %= 4;
    printf("%d\n", i);`,
		rc: 0, stdout: "9 12 36 9 1\n", trap: "", steps: 54},
	{name: "compound-float", body: `x += 1;
    x -= y;
    x *= y;
    x /= 0.25;
    printf("%g ", x);
    i *= x;
    printf("%g ", i);
    a[0] += x;
    a[1] -= 0.5;
    a[2] *= 1.5;
    a[3] /= 2.5;
    printf("%d %d %d %d\n", a[0], a[1], a[2], a[3]);`,
		rc: 0, stdout: "-8 -56 2 19 45 16\n", trap: "", steps: 79},
	{name: "compound-ref", body: `p += 2;
    printf("%d ", *p);
    p -= 3;
    printf("%d %d\n", *p, p == &a[0]);`,
		rc: 0, stdout: "40 10 1\n", trap: "", steps: 43},
	// The conditional evaluates exactly one arm.
	{name: "ternary", body: `printf("%g %g ", i > j ? x : y, z ? x : y);
    printf("%d ", z ? i++ : j++);
    printf("%d %d %d\n", i, j, i > 0 ? j > 0 ? 1 : 2 : 3);`,
		rc: 0, stdout: "2.5 -0.5 -3 7 -2 2\n", trap: "", steps: 52},
	// Refs: arithmetic with ints on either side, and equality with
	// NULL and 0.
	{name: "ref-int", body: `int *r = p + 2;
    int *s = 1 + p;
    int *t = r - 1;
    int *u = p - 1;
    printf("%d %d %d %d\n", *r, *s, *t, *u);`,
		rc: 0, stdout: "40 30 30 10\n", trap: "", steps: 50},
	{name: "ref-null", body: `printf("%d %d %d %d %d ", p == q, p != q, q == NULL, NULL == q, q != NULL);
    printf("%d %d %d %d\n", p == p, p == p + 1, q == 0, p < p + 1);`,
		rc: 0, stdout: "0 1 1 1 0 1 0 1 0\n", trap: "", steps: 59},
	{name: "null-zero", body: `printf("%d %d %d %d\n", NULL == 0, 0 == NULL, NULL != 0, q == z);`,
		rc: 0, stdout: "1 1 0 1\n", trap: "", steps: 38},
	// Division by zero: integers trap, floats do not.
	{name: "int-div-zero", body: `printf("%d\n", i / z);`,
		rc: 136, stdout: "", trap: "fpe", steps: 27},
	{name: "int-mod-zero", body: `printf("%d\n", i % z);`,
		rc: 136, stdout: "", trap: "fpe", steps: 27},
	{name: "float-div-zero", body: `printf("%g %g %g\n", x / z, y / 0.0, i / 0.0);`,
		rc: 0, stdout: "+Inf -Inf +Inf\n", trap: "", steps: 35},
	{name: "compound-div-zero", body: `i /= z;
    printf("%d\n", i);`,
		rc: 136, stdout: "", trap: "fpe", steps: 25},
	// Casts and sizeof.
	{name: "cast", body: `printf("%d %g %d %d\n", (int)x, (double)i / 2, (int)y, (char)300);
    printf("%d %d %d\n", sizeof(double), sizeof(char), sizeof(int *));`,
		rc: 0, stdout: "2 3.5 0 44\n8 1 8\n", trap: "", steps: 41},
}

func TestLoweredOperators(t *testing.T) {
	for _, row := range loweredOperatorRows {
		t.Run(row.name, func(t *testing.T) {
			res := compileMaybe(opPrologue+"    "+row.body+"\n    return 0;\n}\n", spec.OpenMP)
			if !res.OK {
				t.Fatalf("compile failed:\n%s", res.Stderr)
			}
			r := Run(res.Object, Options{})
			if r.ReturnCode != row.rc || r.Stdout != row.stdout || r.Trap != row.trap || r.Steps != row.steps {
				t.Fatalf("rc %d stdout %q trap %q steps %d, want rc %d stdout %q trap %q steps %d",
					r.ReturnCode, r.Stdout, r.Trap, r.Steps, row.rc, row.stdout, row.trap, row.steps)
			}
		})
	}
}

// A fault fires only when its node executes: each faulting construct
// sits in an if whose condition is COND. Untaken, the program exits 0
// with the step count it had before lowering; taken, it fails with the
// return code and stderr it had then.
func TestFaultsOnlyWhenExecuted(t *testing.T) {
	const prologue = `#include <stdio.h>
int main() {
    int z = 0;
    int i = 7;
    int *q = NULL;
    int m[2][3];
`
	cases := []struct {
		name string
		pers *compiler.Personality
		body string
		// untakenSteps is the step count of the run with COND false.
		untakenSteps int64
		// rc and stderr are the taken run's.
		rc     int
		stderr string
	}{
		{name: "null store", pers: compiler.ClangSim(), body: `if (COND) { *q = 1; }`,
			untakenSteps: 16, rc: 139, stderr: "Segmentation fault (core dumped)\n"},
		{name: "division by zero", pers: compiler.ClangSim(), body: `if (COND) { i = i / z; }`,
			untakenSteps: 16, rc: 136, stderr: "Floating point exception (core dumped)\n"},
		{name: "undefined function", pers: compiler.ClangSim(), body: `if (COND) { undefined_fn(i); }`,
			untakenSteps: 16, rc: 127, stderr: "symbol lookup error: undefined symbol: undefined_fn\n"},
		{name: "row assignment", pers: compiler.NVCSim(), body: `if (COND) { m[1] = 5; }`,
			untakenSteps: 16, rc: 139, stderr: "Segmentation fault (core dumped)\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, taken := range []bool{false, true} {
				cond := "z"
				if taken {
					cond = "!z"
				}
				src := prologue + "    " + strings.Replace(c.body, "COND", cond, 1) + "\n    printf(\"done\\n\");\n    return 0;\n}\n"
				res := c.pers.Compile("test.c", src, testlang.LangC)
				if !res.OK {
					t.Fatalf("compile failed:\n%s", res.Stderr)
				}
				r := Run(res.Object, Options{})
				if !taken && (r.ReturnCode != 0 || r.Stdout != "done\n" || r.Steps != c.untakenSteps) {
					t.Fatalf("untaken: rc %d stdout %q steps %d stderr %q, want rc 0 stdout \"done\\n\" steps %d",
						r.ReturnCode, r.Stdout, r.Steps, r.Stderr, c.untakenSteps)
				}
				if taken && (r.ReturnCode != c.rc || r.Stderr != c.stderr) {
					t.Fatalf("taken: rc %d stderr %q, want rc %d stderr %q", r.ReturnCode, r.Stderr, c.rc, c.stderr)
				}
			}
		})
	}
}

// Concurrent region workers share one program's lowered code, so
// nothing a region computes once per directive may be written while it
// runs. Here each worker of a host parallel region forks a work-shared
// reduction of its own, twenty times over. Before the region analyses
// moved to lowering time, each fork deleted the reduction name from the
// loop's use set (which also holds last, so it never empties); with
// that set shared, the deletes race each other and the other workers'
// reads, which the Go runtime reports as a fatal concurrent map write.
// Race builds run region workers one after another (race_on.go), so
// only repetition at a real width shows the fault.
func TestNestedReductionRepeatable(t *testing.T) {
	res := compileMaybe(`#include <stdio.h>
#include <omp.h>
int main() {
    int out[4] = {0, 0, 0, 0};
    int hits = 0;
    #pragma omp parallel num_threads(4)
    {
        int s = 0;
        int last = -1;
        int w = omp_get_thread_num();
        for (int r = 0; r < 20; r++) {
            #pragma omp parallel for reduction(+:s)
            for (int k = 0; k < 10; k++) {
                s += k + w;
                last = k;
            }
        }
        out[w] = s + last;
        #pragma omp critical
        {
            hits++;
        }
    }
    printf("%d %d %d %d %d\n", out[0], out[1], out[2], out[3], hits);
    return 0;
}
`, spec.OpenMP)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	const want = "899 1099 1299 1499 4\n"
	for n := 0; n < 200; n++ {
		r := Run(res.Object, Options{Workers: 4})
		if r.ReturnCode != 0 || r.Stdout != want {
			t.Fatalf("run %d: rc %d stdout %q stderr %q, want rc 0 stdout %q", n, r.ReturnCode, r.Stdout, r.Stderr, want)
		}
	}
}

package machine

import (
	"fmt"
	"strings"
	"testing"
	"time"

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
		rc: 0, stdout: "0 1 1 1 0 1 0 1 1\n", trap: "", steps: 59},
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

// Every region worker runs one program's lowered code, so nothing a
// region computes once per directive may be changed by running it.
// Here each worker of a host parallel region forks a work-shared
// reduction of its own, twenty times over. Before the region analyses
// moved to lowering time, each fork deleted the reduction name from the
// loop's use set (which also holds last, so it never empties), a set
// every fork shares. Repeating the region at a real width pins that
// no worker's run changes what the next one sees.
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

// Tests the resolver: every variable use reads the slot of the
// declaration the checker bound it to, and that is the cell a lookup by
// name in a chain of scopes would find.
//
// Testing strategy: whole programs, each row's rc, stdout and steps
// recorded before names resolved to slots (when a scope chain looked
// every use up by name at run time), at Workers 1 and 4. The last
// seven rows were recorded while the region analyses still went by
// name; those whose region body shadows a name, from the same program
// with the inner declaration renamed, which that analysis got right.
// The second row's loop body took its braces, and its figures, when a
// declaration as a bare body stopped compiling in C; the compiler's
// TestNameScopes covers bare bodies.
//
// Partitions:
//   - where the read binding was declared: this block, an enclosing
//     block, a global (through a function's alias), nowhere yet
//   - declarations of one site per scope entry: 1, 10,000
//   - region overlays: loop variable, private, firstprivate,
//     reduction, privatized scalar, device mirror seen by a callee
//   - a region body that shadows an outer variable it uses: loop
//     variable, scalar, device-mapped array, beside a nested reduction
//   - what else a region's analyses see: writes under atomic, critical
//     and single (shared), a callee first lowered inside the region
//     (not part of it), a pointer the body declares (not mapped)
func TestResolvedNames(t *testing.T) {
	rows := []struct {
		name    string
		dialect spec.Dialect
		src     string
		rc      int
		stdout  string
		steps   int64
	}{
		{name: "shadowing across three nested blocks", dialect: spec.OpenACC, src: `#include <stdio.h>
int main() {
    int x = 1;
    int s = 0;
    {
        int x = 2;
        s = s * 10 + x;
        {
            int x = 3;
            s = s * 10 + x;
            {
                int x = 4;
                s = s * 10 + x;
            }
            s = s * 10 + x;
        }
        s = s * 10 + x;
    }
    printf("%d %d\n", x, s);
    return 0;
}
`, rc: 0, stdout: "1 23432\n", steps: 55},
		{name: "loop body redeclares a name 10000 times", dialect: spec.OpenACC, src: `#include <stdio.h>
int main() {
    int s = 0;
    for (int i = 0; i < 10000; i++) {
        int x = i;
        s += x;
    }
    int k = 0;
    int y = -1;
    {
        while (k < 10000) { int y = k++; s += y; }
        s += y;
    }
    printf("%d %d %d\n", s, k, y);
    return 0;
}
`, rc: 0, stdout: "99989999 10000 -1\n", steps: 190029},
		{name: "function reads a global declared before the calling initializer", dialect: spec.OpenACC, src: `#include <stdio.h>
int g0 = 7;
int f() { return g0 * 2; }
int a = f();
int g = 5;
int main() {
    printf("%d %d %d\n", a, f(), g);
    return 0;
}
`, rc: 0, stdout: "14 14 5\n", steps: 21},
		{name: "function reads a global declared after the calling initializer", dialect: spec.OpenACC, src: `#include <stdio.h>
int h();
int a = h();
int g = 5;
int h() { return g; }
int main() {
    printf("%d\n", a);
    return 0;
}
`, rc: 139, stdout: "", steps: 4},
		{name: "parallel for over an outer loop variable", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    int i = 42;
    int a[100];
    #pragma omp parallel for
    for (i = 0; i < 100; i++) {
        a[i] = i;
    }
    int s = 0;
    for (int k = 0; k < 100; k++) s += a[k];
    printf("%d %d\n", i, s);
    return 0;
}
`, rc: 0, stdout: "42 4950\n", steps: 1522},
		{name: "private firstprivate reduction and privatized scalar", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    int p = 5, fp = 7, sum = 0, t = 0;
    int a[64];
    #pragma omp parallel for private(p) firstprivate(fp) reduction(+:sum)
    for (int i = 0; i < 64; i++) {
        p = i;
        t = fp + p;
        sum += t;
        a[i] = t;
    }
    int s = 0;
    for (int k = 0; k < 64; k++) s += a[k];
    printf("%d %d %d %d %d\n", p, fp, sum, t, s);
    return 0;
}
`, rc: 0, stdout: "5 7 2464 0 2464\n", steps: 1692},
		{name: "callee in a compute region sees the host block", dialect: spec.OpenACC, src: `#include <stdio.h>
int g[8];
int peek(int k) { return g[k]; }
int main() {
    for (int k = 0; k < 8; k++) g[k] = k;
    int seen = 0;
    #pragma acc parallel copy(g[0:8])
    {
        g[3] = 100;
        seen = peek(3);
    }
    printf("%d %d\n", seen, g[3]);
    return 0;
}
`, rc: 0, stdout: "3 100\n", steps: 108},
		{name: "parallel region privatizes a loop variable its body shadows", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    int i = 0, s = 0;
    #pragma omp parallel num_threads(4)
    {
        for (i = 0; i < 1000; i++) {
            for (int i = 0; i < 1; i++) {
                s = s;
            }
        }
    }
    printf("%d\n", i);
    return 0;
}
`, rc: 0, stdout: "0\n", steps: 76043},
		{name: "compute region maps an array its body shadows later", dialect: spec.OpenACC, src: `#include <stdio.h>
int a[8];
int peek(int k) { return a[k]; }
int main() {
    for (int k = 0; k < 8; k++) a[k] = k;
    int seen = 0;
    #pragma acc parallel
    {
        a[3] = 100;
        seen = peek(3);
        {
            int a = 5;
            seen = seen * 10 + a;
        }
    }
    printf("%d %d\n", seen, a[3]);
    return 0;
}
`, rc: 0, stdout: "35 100\n", steps: 116},
		{name: "parallel region privatizes a scalar its body shadows later", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    int t = 0, s = 0;
    #pragma omp parallel num_threads(4)
    {
        t = t + 1;
        {
            int t = 7;
            s = t;
        }
    }
    printf("%d %d\n", t, s);
    return 0;
}
`, rc: 0, stdout: "0 0\n", steps: 60},
		{name: "nested reduction variable stays shared beside a shadowing block", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    int sum = 0, n = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp for reduction(+:sum)
        for (int k = 0; k < 100; k++) {
            sum += k;
        }
        {
            int sum = 5;
            n = sum;
        }
    }
    printf("%d %d\n", sum, n);
    return 0;
}
`, rc: 0, stdout: "4950 0\n", steps: 452},
		{name: "writes under atomic critical and single stay shared", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    int s = 0, c = 0, o = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp atomic
        s += 1;
        #pragma omp critical
        {
            c = c + 2;
        }
        #pragma omp single
        o = o + 5;
    }
    printf("%d %d %d\n", s, c, o);
    return 0;
}
`, rc: 0, stdout: "4 8 5\n", steps: 71},
		{name: "callee first lowered in a region is not part of it", dialect: spec.OpenMP, src: `#include <stdio.h>
int bump(int v) {
    int w = v + 1;
    return w;
}
int main() {
    int t = 0;
    #pragma omp parallel num_threads(4)
    {
        int u = bump(1);
        t = t + u;
    }
    printf("%d %d\n", t, bump(t));
    return 0;
}
`, rc: 0, stdout: "0 1\n", steps: 83},
		{name: "compute region does not map a pointer its body declares", dialect: spec.OpenACC, src: `#include <stdio.h>
int main() {
    int a[4];
    int n = 0;
    for (int k = 0; k < 2; k++) {
        #pragma acc parallel if(k == 1)
        {
            int *p = NULL;
            if (k == 1) p = a;
            a[k] = k + 10;
            n = n + (p == NULL);
        }
    }
    printf("%d %d %d\n", a[0], a[1], n);
    return 0;
}
`, rc: 0, stdout: "10 11 1\n", steps: 85},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res := compileMaybe(row.src, row.dialect)
			if !res.OK {
				t.Fatalf("compile failed:\n%s", res.Stderr)
			}
			for _, w := range []int{1, 4} {
				r := Run(res.Object, Options{Workers: w})
				if r.ReturnCode != row.rc || r.Stdout != row.stdout || r.Steps != row.steps {
					t.Fatalf("Workers %d: rc %d stdout %q steps %d stderr %q, want rc %d stdout %q steps %d",
						w, r.ReturnCode, r.Stdout, r.Steps, r.Stderr, row.rc, row.stdout, row.steps)
				}
			}
		})
	}
}

// A reduction clause on a work-shared loop inside a parallel region
// gives each worker's chunk an accumulator of its own, folded into the
// shared variable once the chunk is done. Inside a single construct
// only worker 0 runs the body, so only its quarter of the iterations
// runs, and its fold must still finish.
func TestChunkedLoopReduction(t *testing.T) {
	const loop = `
            #pragma omp for reduction(+:sum)
            for (int k = 0; k < 100000; k++) {
                sum += 1;
            }
`
	cases := []struct {
		name, body, want string
	}{
		{name: "in parallel", body: loop, want: "100000\n"},
		{name: "in single", body: "#pragma omp single\n{\n" + loop + "}\n", want: "25000\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := compileMaybe(`#include <stdio.h>
int main() {
    int sum = 0;
    #pragma omp parallel
    {
`+c.body+`    }
    printf("%d\n", sum);
    return 0;
}
`, spec.OpenMP)
			if !res.OK {
				t.Fatalf("compile failed:\n%s", res.Stderr)
			}
			for n := 0; n < 50; n++ {
				r := Run(res.Object, Options{Workers: 4})
				if r.ReturnCode != 0 || r.Stdout != c.want {
					t.Fatalf("run %d: rc %d stdout %q stderr %q, want rc 0 stdout %q", n, r.ReturnCode, r.Stdout, r.Stderr, c.want)
				}
			}
		})
	}
}

// A mutual-exclusion construct nested in another (real OpenMP allows a
// critical in a differently named one, and an atomic in a critical)
// runs its body like the outer one. Each case must finish with every
// worker's update counted.
func TestNestedMutualExclusion(t *testing.T) {
	cases := []struct {
		name, body string
		once       bool // only one worker runs the outer construct
	}{
		{name: "critical in critical", body: `
        #pragma omp critical
        {
            #pragma omp critical
            s += 1;
        }`},
		{name: "atomic in critical", body: `
        #pragma omp critical
        {
            #pragma omp atomic
            s += 1;
        }`},
		{name: "single holding critical", once: true, body: `
        #pragma omp single
        {
            #pragma omp critical
            s += 1;
        }`},
		{name: "master holding critical", once: true, body: `
        #pragma omp master
        {
            #pragma omp critical
            s += 1;
        }`},
	}
	for _, c := range cases {
		res := compileMaybe(`#include <stdio.h>
int main() {
    int s = 0;
    #pragma omp parallel
    {`+c.body+`
    }
    printf("%d\n", s);
    return 0;
}
`, spec.OpenMP)
		if !res.OK {
			t.Fatalf("%s: compile failed:\n%s", c.name, res.Stderr)
		}
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(t *testing.T) {
				want := w
				if c.once {
					want = 1
				}
				done := make(chan *Result, 1)
				go func() { done <- Run(res.Object, Options{Workers: w}) }()
				select {
				case r := <-done:
					if r.ReturnCode != 0 || r.Stdout != fmt.Sprintf("%d\n", want) {
						t.Fatalf("rc %d stdout %q stderr %q, want rc 0 stdout %q", r.ReturnCode, r.Stdout, r.Stderr, fmt.Sprintf("%d\n", want))
					}
				case <-time.After(10 * time.Second):
					t.Fatal("run did not finish: the nested construct deadlocked")
				}
			})
		}
	}
}

// TestNestedParallelInExclusive runs an omp parallel inside a critical,
// single or master body whose workers enter an atomic or critical of
// their own. Each case must finish with every inner update counted;
// when mutual exclusion was a lock, each deadlocked. All cases share
// one deadline, so a regression fails in seconds rather than per case.
func TestNestedParallelInExclusive(t *testing.T) {
	type outcome struct {
		name, want string
		r          *Result
	}
	var cases []string
	done := make(chan outcome)
	for _, outer := range []string{"critical", "single", "master"} {
		for _, inner := range []string{"atomic", "critical"} {
			res := compileMaybe(`#include <stdio.h>
int main() {
    int s = 0;
    #pragma omp parallel
    {
        #pragma omp `+outer+`
        {
            #pragma omp parallel
            {
                #pragma omp `+inner+`
                s += 1;
            }
        }
    }
    printf("%d\n", s);
    return 0;
}
`, spec.OpenMP)
			if !res.OK {
				t.Fatalf("%s in %s: compile failed:\n%s", inner, outer, res.Stderr)
			}
			for _, w := range []int{1, 2, 4} {
				want := w // one worker runs the single or master body
				if outer == "critical" {
					want = w * w
				}
				name := fmt.Sprintf("%s in parallel in %s/workers=%d", inner, outer, w)
				cases = append(cases, name)
				go func() {
					done <- outcome{name, fmt.Sprintf("%d\n", want), Run(res.Object, Options{Workers: w})}
				}()
			}
		}
	}
	deadline := time.After(10 * time.Second)
	finished := map[string]bool{}
	for range cases {
		select {
		case o := <-done:
			finished[o.name] = true
			if o.r.ReturnCode != 0 || o.r.Stdout != o.want {
				t.Errorf("%s: rc %d stdout %q stderr %q, want rc 0 stdout %q", o.name, o.r.ReturnCode, o.r.Stdout, o.r.Stderr, o.want)
			}
		case <-deadline:
			for _, name := range cases {
				if !finished[name] {
					t.Errorf("%s: run did not finish: the nested region deadlocked", name)
				}
			}
			return
		}
	}
}

// TestStoreConversions pins that a store into a typed scalar converts
// to the declared type, as gcc does: =, +=, -= and *= of a double into
// char, short, int and long, straight and in a one-trip loop, with and
// without loop kernels. Each prints x and x * 2, so a fraction left in
// the cell shows. The dialect folds short into int, so the short int
// rows stay inside short's range.
func TestStoreConversions(t *testing.T) {
	for _, row := range []struct {
		decl, stmt string
		want       int64
	}{
		{"char x = 0;", "x = d;", 44},
		{"char x = 100;", "x += d;", -112},
		{"char x = 5;", "x -= n * 100;", -1},
		{"char x = 3;", "x *= d;", -122},
		{"short int x = 0;", "x = d * 10;", 3007},
		{"short int x = 100;", "x += d;", 400},
		{"short int x = 7;", "x -= n;", 9},
		{"short int x = 9;", "x *= n;", -22},
		{"int x = 0;", "x = d * 1e6;", 300750000},
		{"int x = 2000000;", "x += d;", 2000300},
		{"int x = 7;", "x -= n;", 9},
		{"int x = 9;", "x *= n;", -22},
		{"long x = 0;", "x = d * 1e7;", 3007500000},
		{"long x = 2147483000;", "x += d * 10;", 2147486007},
		{"long x = 7;", "x -= n;", 9},
		{"long x = 9;", "x *= n;", -22},
	} {
		for _, body := range []string{row.stmt, "for (int i = 0; i < 1; i++) " + row.stmt} {
			src := "#include <stdio.h>\nint main() {\n    double d = 300.75;\n    double n = -2.5;\n    " +
				row.decl + "\n    " + body + "\n    printf(\"%ld %ld\\n\", (long)x, (long)(x * 2));\n    return 0;\n}\n"
			res := compiler.ForDialect(spec.OpenACC).Compile("test.c", src, testlang.LangC)
			if !res.OK {
				t.Fatalf("%s %s: compile failed:\n%s", row.decl, body, res.Stderr)
			}
			want := fmt.Sprintf("%d %d\n", row.want, 2*row.want)
			if r := sameWithoutKernels(t, res.Object, Options{}, false); r.Stdout != want {
				t.Errorf("%s %s: printed %q, want %q", row.decl, body, r.Stdout, want)
			}
		}
	}
}

// TestCharLiteralsAsC pins a char literal's value as gcc gives it on
// x86, where char is signed: a raw byte of 0x80 or more is negative,
// equal to a char holding it, and the simple escapes decode, in the
// generic closures and in a loop kernel.
func TestCharLiteralsAsC(t *testing.T) {
	src := "#include <stdio.h>\nint main() {\n    char c = '\xff';\n    int n = 0;\n" +
		"    for (int i = 0; i < 4; i++) n += '\xff' + '\\r';\n" +
		"    printf(\"%d %d %d %d %d\\n\", '\xff', c == '\xff', '\\r', '\\a' + '\\v', n);\n    return 0;\n}\n"
	res := compiler.ForDialect(spec.OpenMP).Compile("test.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	if r := sameWithoutKernels(t, res.Object, Options{}, true); r.Stdout != "-1 1 13 18 48\n" {
		t.Fatalf("printed %q, want %q", r.Stdout, "-1 1 13 18 48\n")
	}
}

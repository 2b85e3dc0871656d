package machine

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// regionOutcome is what one run of a region row shows.
type regionOutcome struct {
	rc     int
	stdout string
	steps  int64
}

// regionRows cover every shape a region runs in: each construct kind,
// a loop directive nested in each kind of region, if(0), a width of
// one, a zero stride at run time and the data-sharing clauses. Each
// row gives its outcome at Workers 1 and at Workers 4. The rows were
// recorded before the machine's region paths became one fork-join, and
// every row passed there but the four marked "was", which printed what
// their names say, where a real toolchain prints what they give now.
var regionRows = []struct {
	name    string
	dialect spec.Dialect
	// src follows the includes of stdio.h and stdlib.h.
	src    string
	w1, w4 regionOutcome
}{
	{name: "compute block", dialect: spec.OpenACC, src: `int main() {
    int a[4] = {0, 0, 0, 0};
    int n = 3;
    #pragma acc parallel copy(a[0:4])
    {
        for (int i = 0; i < 4; i++) a[i] = i * n;
        n = 7;
    }
    printf("%d %d %d\n", a[1], a[3], n);
    return 0;
}
`,
		w1: regionOutcome{0, "3 9 7\n", 77},
		w4: regionOutcome{0, "3 9 7\n", 77}},
	{name: "compute loop", dialect: spec.OpenACC, src: `int main() {
    int a[8];
    int s = 0;
    #pragma acc parallel loop copyout(a[0:8]) reduction(+:s)
    for (int i = 0; i < 8; i++) {
        a[i] = 2 * i;
        s += i;
    }
    printf("%d %d\n", a[7], s);
    return 0;
}
`,
		w1: regionOutcome{0, "14 28\n", 106},
		w4: regionOutcome{0, "14 28\n", 106}},
	{name: "omp parallel", dialect: spec.OpenMP, src: `int main() {
    int n = 0;
    int t = 5;
    #pragma omp parallel
    {
        #pragma omp atomic
        n++;
        t = omp_get_thread_num();
    }
    printf("%d %d\n", n, t);
    return 0;
}
`,
		w1: regionOutcome{0, "1 5\n", 19},
		w4: regionOutcome{0, "4 5\n", 40}},
	{name: "omp parallel for", dialect: spec.OpenMP, src: `int main() {
    int a[10];
    int s = 0;
    #pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 10; i++) {
        a[i] = omp_get_thread_num();
        s += i;
    }
    printf("%d %d %d\n", s, a[0], a[9]);
    return 0;
}
`,
		w1: regionOutcome{0, "45 0 0\n", 109},
		w4: regionOutcome{0, "45 0 3\n", 109}},
	{name: "loop in omp parallel", dialect: spec.OpenMP, src: `int main() {
    int a[8];
    int s = 0;
    #pragma omp parallel
    {
        #pragma omp for reduction(+:s)
        for (int i = 0; i < 8; i++) {
            s += i;
            a[i] = omp_get_thread_num();
        }
    }
    printf("%d %d %d\n", s, a[0], a[7]);
    return 0;
}
`,
		w1: regionOutcome{0, "28 0 0\n", 129},
		w4: regionOutcome{0, "28 0 3\n", 105}},
	{name: "loop in compute block", dialect: spec.OpenACC, src: `int main() {
    int a[8];
    #pragma acc parallel num_gangs(2) copyout(a[0:8])
    {
        #pragma acc loop
        for (int i = 0; i < 8; i++) a[i] = i * i;
    }
    printf("%d %d\n", a[2], a[7]);
    return 0;
}
`,
		w1: regionOutcome{0, "4 49\n", 76},
		w4: regionOutcome{0, "4 49\n", 76}},
	{name: "loop in distributed loop", dialect: spec.OpenACC, src: `int main() {
    int out[4];
    #pragma acc parallel loop gang copyout(out[0:4])
    for (int i = 0; i < 4; i++) {
        int t = 0;
        #pragma acc loop vector reduction(+:t)
        for (int j = 0; j < 5; j++) t += i * j;
        out[i] = t;
    }
    printf("%d %d\n", out[1], out[3]);
    return 0;
}
`,
		w1: regionOutcome{0, "10 30\n", 162},
		w4: regionOutcome{0, "10 30\n", 258}},
	{name: "loop in host distributed loop", dialect: spec.OpenMP, src: `int main() {
    int a[4];
    #pragma omp parallel for
    for (int i = 0; i < 4; i++) {
        int t = 0;
        #pragma omp simd reduction(+:t)
        for (int j = 0; j < 3; j++) t += omp_get_num_threads();
        a[i] = t;
    }
    printf("%d %d\n", a[0], a[3]);
    return 0;
}
`,
		w1: regionOutcome{0, "3 3\n", 160},
		w4: regionOutcome{0, "12 12\n", 160}},
	{name: "if(0) compute loop", dialect: spec.OpenACC, src: `int main() {
    int s = 0;
    int c = 0;
    #pragma acc parallel loop if(c) reduction(+:s)
    for (int i = 0; i < 8; i++) s += i;
    printf("%d\n", s);
    return 0;
}
`,
		w1: regionOutcome{0, "28\n", 74},
		w4: regionOutcome{0, "28\n", 74}},
	{name: "if(0) omp parallel", dialect: spec.OpenMP, src: `int main() {
    int w = -1;
    #pragma omp parallel if(0)
    {
        w = omp_get_num_threads();
    }
    printf("%d\n", w);
    return 0;
}
`,
		w1: regionOutcome{0, "1\n", 15},
		w4: regionOutcome{0, "1\n", 15}},
	{name: "num_threads(1)", dialect: spec.OpenMP, src: `int main() {
    int s = 0;
    int w = 0;
    #pragma omp parallel num_threads(1)
    {
        #pragma omp for reduction(+:s)
        for (int i = 0; i < 8; i++) s += i;
        #pragma omp single
        w = omp_get_num_threads();
    }
    printf("%d %d\n", s, w);
    return 0;
}
`,
		w1: regionOutcome{0, "28 1\n", 81},
		w4: regionOutcome{0, "28 1\n", 81}},
	{name: "zero stride in parallel for", dialect: spec.OpenMP, src: `int main() {
    int k = 0;
    int s = 0;
    #pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 8; i += k) {
        s++;
        if (s == 5) break;
    }
    printf("%d\n", s);
    return 0;
}
`,
		w1: regionOutcome{0, "5\n", 75},
		w4: regionOutcome{0, "5\n", 75}},
	{name: "zero stride in omp parallel", dialect: spec.OpenMP, src: `int main() {
    int k = 0;
    int a[1] = {0};
    #pragma omp parallel
    {
        #pragma omp for
        for (int i = 0; i < 8; i += k) {
            a[0]++;
            if (a[0] == 5) break;
        }
    }
    printf("%d\n", a[0]);
    return 0;
}
`,
		w1: regionOutcome{0, "5\n", 98},
		w4: regionOutcome{0, "5\n", 115}},
	{name: "private", dialect: spec.OpenMP, src: `int main() {
    int x = 3;
    int a[4];
    #pragma omp parallel for private(x)
    for (int i = 0; i < 4; i++) {
        x = i * 10;
        a[i] = x;
    }
    printf("%d %d\n", x, a[3]);
    return 0;
}
`,
		w1: regionOutcome{0, "3 30\n", 60},
		w4: regionOutcome{0, "3 30\n", 60}},
	{name: "firstprivate", dialect: spec.OpenACC, src: `int main() {
    int x = 3;
    int a[4];
    #pragma acc parallel loop firstprivate(x) copyout(a[0:4])
    for (int i = 0; i < 4; i++) {
        x += i;
        a[i] = x;
    }
    printf("%d %d %d\n", x, a[1], a[3]);
    return 0;
}
`,
		w1: regionOutcome{0, "3 4 9\n", 57},
		w4: regionOutcome{0, "3 4 6\n", 57}},
	{name: "private and firstprivate on a compute block", dialect: spec.OpenACC, src: `int main() {
    int x = 3;
    int y = 4;
    int a[2];
    #pragma acc parallel private(x) firstprivate(y) copyout(a[0:2])
    {
        a[0] = x;
        y = y + 1;
        a[1] = y;
    }
    printf("%d %d %d %d\n", x, y, a[0], a[1]);
    return 0;
}
`,
		w1: regionOutcome{0, "3 4 0 5\n", 38},
		w4: regionOutcome{0, "3 4 0 5\n", 38}},
	{name: "reductions", dialect: spec.OpenMP, src: `int main() {
    int p = 1;
    double m = -1.0;
    int all = 1;
    #pragma omp parallel for reduction(*:p) reduction(max:m) reduction(&&:all)
    for (int i = 1; i <= 6; i++) {
        p *= i;
        if (i * 0.5 > m) m = i * 0.5;
        all = all && i > 0;
    }
    printf("%d %.1f %d\n", p, m, all);
    return 0;
}
`,
		w1: regionOutcome{0, "720 3.0 1\n", 150},
		w4: regionOutcome{0, "720 3.0 1\n", 150}},
	{name: "compute reduction binds its driver", dialect: spec.OpenACC, src: `int main() {
    int s = 5;
    #pragma acc parallel num_gangs(4) reduction(+:s)
    {
        s += 1;
    }
    printf("%d\n", s);
    return 0;
}
`,
		w1: regionOutcome{0, "6\n", 13},
		w4: regionOutcome{0, "6\n", 13}},
	{name: "compute reduction over a nested loop (was 0.000000)", dialect: spec.OpenACC, src: `int main() {
    double s = 0.0;
    #pragma acc parallel num_gangs(2) reduction(+:s)
    {
        #pragma acc loop
        for (int i = 0; i < 8; i++) s += i;
    }
    printf("%f\n", s);
    return 0;
}
`,
		w1: regionOutcome{0, "28.000000\n", 37},
		w4: regionOutcome{0, "28.000000\n", 37}},
	{name: "teams reduction over a nested distribute (was 0)", dialect: spec.OpenMP, src: `int main() {
    int s = 0;
    #pragma omp target teams reduction(+:s)
    {
        #pragma omp distribute
        for (int i = 0; i < 8; i++) s += i;
    }
    printf("%d\n", s);
    return 0;
}
`,
		w1: regionOutcome{0, "28\n", 37},
		w4: regionOutcome{0, "28\n", 37}},
	{name: "teams in target with a heap pointer (was a device fault)", dialect: spec.OpenMP, src: `int main() {
    int *a = (int *)malloc(4 * sizeof(int));
    a[0] = 0;
    #pragma omp target map(tofrom: a[0:4])
    {
        #pragma omp teams
        {
            a[0] = 2;
        }
    }
    printf("%d\n", a[0]);
    return 0;
}
`,
		w1: regionOutcome{0, "2\n", 30},
		w4: regionOutcome{0, "2\n", 30}},
	{name: "teams in target with a declared array", dialect: spec.OpenMP, src: `int main() {
    int a[4] = {0, 0, 0, 0};
    #pragma omp target map(tofrom: a)
    {
        #pragma omp teams
        {
            a[0] = 2;
        }
    }
    printf("%d\n", a[0]);
    return 0;
}
`,
		w1: regionOutcome{0, "2\n", 23},
		w4: regionOutcome{0, "2\n", 23}},
	{name: "orphaned omp for in a callee (was 112)", dialect: spec.OpenMP, src: `int s = 0;
void work() {
    #pragma omp for reduction(+:s)
    for (int i = 0; i < 8; i++) s += i;
}
int main() {
    #pragma omp parallel num_threads(4)
    {
        work();
    }
    printf("%d\n", s);
    return 0;
}
`,
		w1: regionOutcome{0, "28\n", 61},
		w4: regionOutcome{0, "28\n", 61}},
}

// TestRegionShapes runs every region row at Workers 1 and 4.
func TestRegionShapes(t *testing.T) {
	for _, row := range regionRows {
		t.Run(row.name, func(t *testing.T) {
			res := compiler.ForDialect(row.dialect).Compile("test.c",
				"#include <stdio.h>\n#include <stdlib.h>\n"+row.src, testlang.LangC)
			if !res.OK {
				t.Fatalf("compile failed:\n%s", res.Stderr)
			}
			for _, c := range []struct {
				workers int
				want    regionOutcome
			}{{1, row.w1}, {4, row.w4}} {
				r := Run(res.Object, Options{Workers: c.workers})
				if got := (regionOutcome{r.ReturnCode, r.Stdout, r.Steps}); got != c.want {
					t.Errorf("Workers %d: got %#v (stderr %q), want %#v", c.workers, got, r.Stderr, c.want)
				}
			}
		})
	}
}

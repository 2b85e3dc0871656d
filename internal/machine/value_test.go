package machine

import (
	"testing"

	"repro/internal/spec"
)

// floatRow is one program over float edge cases and what the machine
// made of it while a value still kept floats in a field of their own:
// a float's payload travels as its IEEE-754 bits, and every row must
// reproduce the return code, output and step count exactly.
type floatRow struct {
	name    string
	dialect spec.Dialect
	src     string
	rc      int
	stdout  string
	steps   int64
}

var floatPayloadRows = []floatRow{
	{name: "negative-zero", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    double z = -0.0;
    double nz = 0.0 * -1.0;
    double one = 1.0;
    printf("%g %g %f %d %d %d\n", z, nz, nz, z == 0.0, nz != 0, !nz);
    printf("%g %d\n", one / nz, one / nz < 0);
    if (nz) printf("true\n"); else printf("false\n");
    return 0;
}
`, rc: 0, stdout: "-0 -0 -0.000000 1 0 1\n-Inf 1\nfalse\n", steps: 40},
	{name: "nan", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    double zero = 0.0;
    double n = zero / zero;
    int hits = 0;
    printf("%d %d %d %d %d %d\n", n == n, n != n, n < 1.0, n > 1.0, n <= n, 1.0 < n);
    printf("%d %d %d\n", n == 1, n != 1, n < 1);
    if (n) hits = hits + 1;
    if (!n) hits = hits + 10;
    while (n && hits < 3) hits = hits + 1;
    printf("%d %d %g %f\n", hits, n ? 1 : 2, n, -n);
    return n == n;
}
`, rc: 0, stdout: "0 1 0 0 0 0\n0 1 0\n3 1 NaN NaN\n", steps: 89},
	{name: "infinity", dialect: spec.OpenACC, src: `#include <stdio.h>
int main() {
    double big = 1e308;
    double inf = big * 10;
    double ninf = -inf;
    double d = inf - inf;
    printf("%g %g %f %e\n", inf, ninf, inf, ninf);
    printf("%d %d %d %d %d\n", inf > big, ninf < -big, inf == inf + 1, d == d, ninf < inf);
    printf("%g %g\n", 1.0 / inf, -1.0 / inf);
    return inf > 0 ? 0 : 1;
}
`, rc: 0, stdout: "+Inf -Inf +Inf -Inf\n1 1 1 0 1\n0 -0\n", steps: 55},
	{name: "casts", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    double h = 3e9;
    double zero = 0.0;
    long l = (long) h;
    int i = (int) h;
    int j = (int) -3e9;
    long k = (long) 1e19;
    int m = (int) 2.9;
    int n = (int) -2.9;
    int a = 1e10;
    char c = 300.7;
    long q = (long) (zero / zero);
    printf("%d %d %d %d %d %d %d %d %d\n", l, i, j, k, m, n, a, c, q);
    printf("%d %d\n", (int) 1e308 == 0, (long) -1e308 < 0);
    return (int) 7.99;
}
`, rc: 7, stdout: "3000000000 -1294967296 1294967296 -9223372036854775808 2 -2 1410065408 44 -9223372036854775808\n1 1\n", steps: 59},
	{name: "printing", dialect: spec.OpenACC, src: `#include <stdio.h>
int main() {
    double x = 2.5;
    float y = -1.25;
    double tiny = 1e-300;
    printf("%g %g %g %g\n", x, y, tiny, 1e21);
    printf("%f %f %f %.3f\n", x, y, tiny, 1.0 / 3);
    printf("%d %d %d %d\n", x, y, 1e21, 3);
    printf("%g %f %g\n", 3, 7, 0.1 + 0.2);
    return 0;
}
`, rc: 0, stdout: "2.5 -1.25 1e-300 1e+21\n2.500000 -1.250000 0.000000 0.333\n2 -1 -9223372036854775808 3\n3 7.000000 0.30000000000000004\n", steps: 37},
	{name: "host-arrays", dialect: spec.OpenMP, src: `#include <stdio.h>
#include <stdlib.h>
int main() {
    double a[4];
    float f[4];
    int n[4];
    double *p = (double *) malloc(4 * sizeof(double));
    double zero = 0.0;
    a[0] = 1.5;
    f[1] = a[0] * 2;
    a[2] = f[1] / zero;
    f[3] = -a[2];
    n[0] = 2.75;
    n[1] = -0.5;
    a[1] = n[0];
    a[1] += 0.25;
    f[2]++;
    p[0] = 0.1;
    p[1] = p[0] + 0.2;
    p[2] = zero / zero;
    p[3] = -zero;
    printf("%g %g %g %g\n", a[0], a[1], a[2], a[3]);
    printf("%g %g %g %g\n", f[0], f[1], f[2], f[3]);
    printf("%d %d %d %d\n", n[0], n[1], n[2], n[3]);
    printf("%g %g %g %g %d\n", p[0], p[1], p[2], p[3], p[2] == p[2]);
    free(p);
    return 0;
}
`, rc: 0, stdout: "1.5 2.25 +Inf 0\n0 3 1 -Inf\n2 0 0 0\n0.1 0.30000000000000004 NaN -0 0\n", steps: 168},
	{name: "omp-device-mirror", dialect: spec.OpenMP, src: `#include <stdio.h>
#define N 8
int main() {
    double a[N];
    float f[N];
    double zero = 0.0;
    for (int i = 0; i < N; i++) {
        a[i] = i * 0.5;
        f[i] = -i;
    }
    a[3] = zero / zero;
    #pragma omp target teams distribute parallel for map(tofrom: a[0:N]) map(to: f[0:N])
    for (int i = 0; i < N; i++) {
        a[i] = a[i] * f[i] + 1e308 * (i == 7) * 10;
    }
    #pragma omp target map(tofrom: f[0:N])
    {
        f[0] = -0.0;
        f[1] = 2.5;
    }
    for (int i = 0; i < N; i++) printf("%g:%g ", a[i], f[i]);
    printf("\n");
    return a[3] == a[3];
}
`, rc: 0, stdout: "0:-0 -0.5:2.5 -2:-2 NaN:-3 -8:-4 -12.5:-5 -18:-6 +Inf:-7 \n", steps: 458},
	{name: "acc-device-mirror", dialect: spec.OpenACC, src: `#include <stdio.h>
#include <stdlib.h>
#define N 8
int main() {
    double *a = (double *) malloc(N * sizeof(double));
    float f[N];
    double s = 0.0;
    double m = -1e308 * 10;
    for (int i = 0; i < N; i++) {
        a[i] = 1.0 / (i - 4);
        f[i] = 0.0;
    }
    #pragma acc parallel loop copy(a[0:N]) copyout(f[0:N]) reduction(+:s) reduction(max:m)
    for (int i = 0; i < N; i++) {
        f[i] = a[i] * 2;
        a[i] = -a[i];
        s += a[i] * 0.0;
        m = a[i] > m ? a[i] : m;
    }
    for (int i = 0; i < N; i++) printf("%g:%g ", a[i], f[i]);
    printf("\n%g %g\n", s, m);
    free(a);
    return 0;
}
`, rc: 0, stdout: "0.25:-0.5 0.3333333333333333:-0.6666666666666666 0.5:-1 1:-2 -Inf:+Inf -1:2 -0.5:1 -0.3333333333333333:0.6666666666666666 \nNaN 1\n", steps: 578},
}

func TestFloatPayloads(t *testing.T) {
	for _, row := range floatPayloadRows {
		t.Run(row.name, func(t *testing.T) {
			r := run(t, row.src, row.dialect)
			if r.ReturnCode != row.rc || r.Stdout != row.stdout || r.Steps != row.steps {
				t.Fatalf("rc %d stdout %q steps %d stderr %q, want rc %d stdout %q steps %d",
					r.ReturnCode, r.Stdout, r.Steps, r.Stderr, row.rc, row.stdout, row.steps)
			}
		})
	}
}

package machine

import (
	"fmt"
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

// numericBlockRows pin what arrays of each element type hold: stores
// that truncate through the block's conversion, a heap block reused
// under a second pointer type, %p of arrays, arrays of pointers, empty
// arrays, and data movement of every numeric type. Every row but
// array-of-pointers-subscript (which the compiler rejected then) was
// recorded while every array element was still a value; each must
// reproduce its return code, output and step count at Workers 1 and 4.
// The rows of arrays of typed pointers give what C prints: their
// elements are pointers, not numbers. So are a void **'s: in
// pointer-elements, the ill-typed store pp[2] = 2.5 keeps the double.
var numericBlockRows = []floatRow{
	{name: "truncating-stores", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    char c[4];
    bool b[4];
    int n[4];
    long l[4];
    c[0] = 300; c[1] = -129; c[2] = 65.9; c[3] = 'A';
    b[0] = 7; b[1] = 0.0; b[2] = -0.5; b[3] = 256;
    n[0] = 3000000000; n[1] = -2147483649; n[2] = 1e10; n[3] = -7.9;
    l[0] = 9223372036854775807; l[1] = 1e19; l[2] = -2.5; l[3] = 3000000000;
    c[0] += 100; c[3]++; n[0]++; b[1]--; b[2] += 2; l[0]++;
    n[1] = n[1] * 4; c[1] = c[1] * 3;
    printf("%d %d %d %d\n", c[0], c[1], c[2], c[3]);
    printf("%d %d %d %d\n", b[0], b[1], b[2], b[3]);
    printf("%d %d %d %d\n", n[0], n[1], n[2], n[3]);
    printf("%d %d %d %d\n", l[0], l[1], l[2], l[3]);
    printf("%g %g %c\n", c[2] / 2, b[0] / 2.0, c[3]);
    return c[1];
}
`, rc: 125, stdout: "-112 125 65 66\n1 1 1 1\n-1294967295 -4 1410065408 -7\n-9223372036854775808 -9223372036854775808 -2 3000000000\n32 0.5 B\n", steps: 213},
	{name: "heap-type-pun", dialect: spec.OpenMP, src: `#include <stdio.h>
#include <stdlib.h>
int main() {
    int *p = (int *) malloc(4 * sizeof(int));
    p[0] = 7;
    p[1] = 2.9;
    double *q = (double *) p;
    q[2] = 3.75;
    q[3] = -1e10;
    double x = q[0] + 0.5;
    char *s = (char *) malloc(3);
    s[0] = 500;
    float *f = (float *) s;
    f[1] = 2.5;
    void *v = malloc(2 * sizeof(double));
    double *d = (double *) v;
    d[0] = 1.25;
    d[1] = d[0] * 3;
    printf("%d %d %g %g %d %d\n", p[0], p[1], q[0], q[2], p[2], q[3]);
    printf("%g %d %d %g %g\n", x, s[0], f[1], d[0], d[1]);
    free(p);
    free(s);
    free(v);
    return 0;
}
`, rc: 0, stdout: "7 2 7 3 3 -1410065408\n7.5 -12 2 1 3\n", steps: 122},
	{name: "pointer-printing", dialect: spec.OpenACC, src: `#include <stdio.h>
#include <stdlib.h>
int main() {
    double a[8];
    int b[3][5];
    char c[2];
    double *h = (double *) malloc(10 * sizeof(double));
    int *z = (int *) malloc(0);
    printf("%p %p %p\n", a, &a[1], &a[7]);
    printf("%p %p %p\n", b, b[1], &b[2][4]);
    printf("%p %p %p %p\n", c, h, &h[9], z);
    printf("%d %d\n", &a[3] == a + 3, h == &h[0]);
    free(h);
    return 0;
}
`, rc: 0, stdout: "0x25587f2324c3ac00 0x25587f2324c3ac08 0x25587f2324c3ac38\n0x28587fa22c475e00 0x28587fa22c475e28 0x28587fa22c475e70\n0x27587f7529c1f000 0x95dbff4ca4774f00 0x95dbff4ca4774f48 0x95dbff56a4870d00\n1 1\n", steps: 65},
	{name: "pointer-elements", dialect: spec.OpenMP, src: `#include <stdio.h>
#include <stdlib.h>
int main() {
    double a[4];
    int *ptrs[2];
    void **pp = (void **) malloc(4 * sizeof(void *));
    a[1] = 4.5;
    ptrs[0] = 0;
    ptrs[1] = 5;
    pp[0] = a;
    pp[1] = 0;
    pp[2] = 2.5;
    double *back = pp[0];
    printf("%d %d\n", ptrs[0], ptrs[1]);
    printf("%g %d %g %d\n", back[1], pp[1] == 0, pp[2], pp[3]);
    printf("%p\n", pp[0]);
    back[2] = 9;
    printf("%g\n", a[2]);
    free(pp);
    return 0;
}
`, rc: 0, stdout: "0 5\n4.5 1 2.5 0\n0x25587f2724c9f800\n9\n", steps: 89},
	{name: "array-of-pointers", dialect: spec.OpenMP, src: `#include <stdio.h>
int main() {
    double a[3];
    a[1] = 2.5;
    double *rows[2];
    int *ids[3];
    int k = 9;
    rows[0] = a;
    ids[2] = &k;
    double *r = rows[0];
    r[2] = 4;
    int *q = ids[2];
    printf("%d %d %g %g %d\n", rows[0] == a, rows[1] == 0, r[1], a[2], q[0]);
    return 0;
}
`, rc: 0, stdout: "1 1 2.5 4 9\n", steps: 61},
	{name: "array-of-pointers-subscript", dialect: spec.OpenACC, src: `#include <stdio.h>
int main() {
    double a[3];
    a[1] = 2.5;
    double *rows[2];
    rows[0] = a;
    rows[0][2] = rows[0][1] * 2;
    printf("%g %g\n", rows[0][1], a[2]);
    return 0;
}
`, rc: 0, stdout: "2.5 5\n", steps: 40},
	{name: "heap-pointer-to-pointer", dialect: spec.OpenMP, src: `#include <stdio.h>
#include <stdlib.h>
int main() {
    double a[3];
    a[1] = 2.5;
    double **h = (double **) malloc(2 * sizeof(double *));
    int **m = malloc(3 * sizeof(int *));
    int b[2];
    h[0] = a;
    h[1] = 0;
    m[2] = b;
    h[0][0] = 7;
    m[2][1] = 3;
    printf("%d %g %g %d\n", h[0] == a, h[0][1], a[0], h[1] == 0);
    printf("%d %d\n", b[1], m[0] == 0);
    free(h);
    free(m);
    return 0;
}
`, rc: 0, stdout: "1 2.5 7 1\n3 1\n", steps: 88},
	{name: "zero-length", dialect: spec.OpenACC, src: `#include <stdio.h>
#include <stdlib.h>
int main() {
    int n = 0;
    double z[n];
    int *h = (int *) malloc(0);
    long e[0];
    printf("%p %p %p\n", z, h, e);
    #pragma acc data copy(z[0:0], h[0:0])
    {
        printf("in\n");
    }
    printf("%d\n", h[0]);
    return 0;
}
`, rc: 139, stdout: "0x4058ff2d67b95700 0x95dbff56a4870d00 0x21587f931ae6a000\nin\n", steps: 29},
	{name: "acc-data-movement", dialect: spec.OpenACC, src: `#include <stdio.h>
#include <stdlib.h>
#define N 6
int main() {
    char c[N];
    bool b[N];
    int n[N];
    long l[N];
    float f[N];
    double *d = (double *) malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) {
        c[i] = i * 50;
        b[i] = i % 2;
        n[i] = i * 1000000000;
        l[i] = i * 3000000000;
        f[i] = i / 4.0;
        d[i] = -i * 1e300;
    }
    #pragma acc data copyin(c[0:N], b[0:N], n[0:N]) copyout(l[1:4], f[0:N]) copy(d[0:N])
    {
        #pragma acc parallel loop
        for (int i = 0; i < N; i++) {
            c[i] = c[i] + 100;
            b[i] = !b[i];
            n[i] = n[i] * 3;
            l[i] = n[i] + 1;
            f[i] = f[i] * 3;
            d[i] = d[i] * 1e10;
        }
        #pragma acc update host(c[0:3], n[2:2])
        c[5] = 77;
        b[0] = 5;
        #pragma acc update device(c[5:1], b[0:1])
        #pragma acc parallel loop
        for (int i = 0; i < N; i++) {
            f[i] = f[i] + c[i] + b[i];
        }
    }
    for (int i = 0; i < N; i++) printf("%d:%d:%d:%d:%g:%g ", c[i], b[i], n[i], l[i], f[i], d[i]);
    printf("\n");
    free(d);
    return 0;
}
`, rc: 0, stdout: "100:1:0:0:101:0 -106:1:1000000000:-1294967295:-106:-Inf -56:0:1705032704:1705032705:-55:-Inf -106:1:410065408:410065409:-6:-Inf -56:0:-294967296:-884901887:45:-Inf 77:1:705032704:15000000000:77:-Inf \n", steps: 928},
	{name: "omp-data-movement", dialect: spec.OpenMP, src: `#include <stdio.h>
#include <stdlib.h>
#define N 6
int main() {
    char c[N];
    bool b[N];
    int n[N];
    long l[N];
    float f[N];
    double *d = (double *) malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) {
        c[i] = i * 50;
        b[i] = i % 2;
        n[i] = i * 1000000000;
        l[i] = i * 3000000000;
        f[i] = i / 4.0;
        d[i] = -i * 1e300;
    }
    #pragma omp target data map(to: c[0:N], b[0:N], n[0:N]) map(from: l[1:4], f[0:N]) map(tofrom: d[0:N])
    {
        #pragma omp target teams distribute parallel for
        for (int i = 0; i < N; i++) {
            c[i] = c[i] + 100;
            b[i] = !b[i];
            n[i] = n[i] * 3;
            l[i] = n[i] + 1;
            f[i] = f[i] * 3;
            d[i] = d[i] * 1e10;
        }
        #pragma omp target update from(c[0:3], n[2:2])
        c[5] = 77;
        b[0] = 5;
        #pragma omp target update to(c[5:1], b[0:1])
        #pragma omp target teams distribute parallel for
        for (int i = 0; i < N; i++) {
            f[i] = f[i] + c[i] + b[i];
        }
    }
    for (int i = 0; i < N; i++) printf("%d:%d:%d:%d:%g:%g ", c[i], b[i], n[i], l[i], f[i], d[i]);
    printf("\n");
    free(d);
    return 0;
}
`, rc: 0, stdout: "100:1:0:0:101:0 -106:1:1000000000:-1294967295:-106:-Inf -56:0:1705032704:1705032705:-55:-Inf -106:1:410065408:410065409:-6:-Inf -56:0:-294967296:-884901887:45:-Inf 77:1:705032704:15000000000:77:-Inf \n", steps: 928},
}

func TestNumericBlocks(t *testing.T) {
	for _, row := range numericBlockRows {
		res := compileMaybe(row.src, row.dialect)
		if !res.OK {
			t.Fatalf("%s: compile failed:\n%s", row.name, res.Stderr)
		}
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", row.name, w), func(t *testing.T) {
				r := Run(res.Object, Options{Workers: w})
				if r.ReturnCode != row.rc || r.Stdout != row.stdout || r.Steps != row.steps {
					t.Fatalf("rc %d stdout %q steps %d stderr %q, want rc %d stdout %q steps %d",
						r.ReturnCode, r.Stdout, r.Steps, r.Stderr, row.rc, row.stdout, row.steps)
				}
			})
		}
	}
}

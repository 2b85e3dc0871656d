package machine

import (
	"testing"

	"repro/internal/compiler"
)

// callRows cover what a call's reused frame must not lose: a scalar's
// address and a local array that outlive the call, arguments that call
// at the callee's own depth, recursion to the call-depth limit, callees
// run by region workers and a region inside a callee. The expectations
// were recorded while every call allocated its own frame: a reused one
// must reproduce them, and where a run is cut, stop at the same step.
var callRows = []struct {
	name   string
	src    string
	rc     int
	stdout string
	trap   string
	steps  int64
}{
	{name: "address of a local returned and written through", src: `#include <stdio.h>
int *addr(int v) {
    int x = v;
    return &x;
}
int bump(int v) {
    int y = v + 1;
    return y;
}
int main() {
    int *p = addr(5);
    int *q = addr(7);
    *p = *p + bump(10);
    printf("%d %d\n", *p, *q);
    return 0;
}
`, rc: 0, stdout: "16 7\n", trap: "", steps: 42},
	{name: "local array returned and read", src: `#include <stdio.h>
int *fill(int n) {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = n * 10 + i;
    return a;
}
int main() {
    int *p = fill(1);
    int *q = fill(2);
    printf("%d %d %d %d\n", p[0], p[3], q[0], q[3]);
    return 0;
}
`, rc: 0, stdout: "10 13 20 23\n", trap: "", steps: 149},
	{name: "arguments call at the callee's depth", src: `#include <stdio.h>
int g(int v) {
    int w = v * 3;
    return w + 1;
}
int f(int a, int b) {
    int s = a * 100 + b;
    return s;
}
int main() {
    printf("%d %d\n", f(g(1), g(2)), f(f(g(0), 1), g(f(1, 1))));
    return 0;
}
`, rc: 0, stdout: "407 10404\n", trap: "", steps: 91},
	{name: "recursion to the call-depth limit", src: `#include <stdio.h>
int k = 2000;
int down() {
    if (--k) return down();
    printf("at the limit\n");
    return down();
}
int main() {
    return down();
}
`, rc: 139, stdout: "at the limit\n", trap: "segfault", steps: 10006},
	{name: "callee run by region workers", src: `#include <stdio.h>
int sq(int v) {
    int r = v * v;
    return r;
}
int main() {
    int a[8];
    int s = 0;
    #pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 8; i++) {
        a[i] = sq(i);
        s += sq(a[i] % 5);
    }
    printf("%d %d %d\n", s, a[3], a[7]);
    return 0;
}
`, rc: 0, stdout: "51 9 49\n", trap: "", steps: 251},
	{name: "region inside a callee", src: `#include <stdio.h>
int total(int n) {
    int s = 0;
    int t = n;
    #pragma omp parallel num_threads(3)
    {
        int mine = t + 1;
        #pragma omp critical
        {
            s += mine;
        }
    }
    return s;
}
int twice(int n) {
    return total(n) + total(n + 1);
}
int main() {
    printf("%d %d\n", total(4), twice(1));
    return 0;
}
`, rc: 0, stdout: "15 15\n", trap: "", steps: 135},
}

// TestCallsReuseFrames runs every row through checkCuts.
func TestCallsReuseFrames(t *testing.T) {
	for _, row := range callRows {
		t.Run(row.name, func(t *testing.T) {
			checkCuts(t, compiler.ClangSim(), row.src, row.rc, row.stdout, row.trap, row.steps)
		})
	}
}

package machine

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/testlang"
)

// leafPrologue declares the arrays and scalars the leaf rows index,
// compare and increment. Each row appends statements and the closing
// return.
const leafPrologue = `#include <stdio.h>
#include <stdlib.h>
int main() {
    int a[4] = {10, 20, 30, 40};
    int m[2][3] = {1, 2, 3, 4, 5, 6};
    int s = 0;
`

// leafRows cover the generic walk of the hot shapes over leaves
// (variables and int literals): an index chain read, an element store,
// an int comparison and an int increment, in loop bodies with and
// without break or continue, next to what takes a different path: a
// float, a freed or unmaterialized block, an index out of range, a row
// used whole. The expectations were recorded from the generic closures
// alone, and a run cut at any step must trap there. The "shadowed in a
// branch" row, which took the place of a bare-body declaration that C
// does not compile, was recorded before lowering took the checker's
// bindings.
var leafRows = []struct {
	name string
	// pers is the compiler; nil means ClangSim.
	pers   *compiler.Personality
	body   string
	rc     int
	stdout string
	trap   string
	steps  int64
}{
	{name: "fused shapes", body: `for (int i = 0; i < 4; i++) s += a[i];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 3; j++) { m[i][j] = m[i][j] * 2 + i; s += m[i][j]; }
    int k = 2;
    while (k >= 0) { a[k] += m[1][k]; k--; }
    printf("%d %d %d %d %d\n", s, a[0], a[1], a[2], m[1][2]);`,
		rc: 0, stdout: "145 19 31 43 13\n", trap: "", steps: 318},
	{name: "float index", body: `double f = 1.0;
    s = a[f] + m[f][f];
    a[f] = 7;
    m[f][f] += 1;
    printf("%d %d %d\n", s, a[1], m[1][1]);`,
		rc: 0, stdout: "25 7 6\n", trap: "", steps: 56},
	{name: "negative read", body: `for (int i = 2; i > -3; i--) printf("%d\n", a[i]);`,
		rc: 139, stdout: "30\n20\n10\n", trap: "segfault", steps: 60},
	{name: "out-of-range read", body: `printf("%d\n", m[0][4]);
    for (int i = 0; i < 6; i++) printf("%d\n", a[i]);`,
		rc: 139, stdout: "5\n10\n20\n30\n40\n", trap: "segfault", steps: 72},
	{name: "out-of-range row", body: `int r = 2;
    printf("%d\n", m[r][0]);`,
		rc: 139, stdout: "", trap: "segfault", steps: 26},
	{name: "negative row", body: `int r = -1;
    printf("%d\n", m[r][4]);`,
		rc: 139, stdout: "", trap: "segfault", steps: 27},
	{name: "negative write", body: `int n = -1;
    a[0] = 1;
    a[n] = 2;
    printf("%d\n", a[0]);`,
		rc: 139, stdout: "", trap: "segfault", steps: 30},
	{name: "out-of-range write", body: `for (int i = 0; i < 6; i++) { a[i] = i; printf("%d\n", i); }`,
		rc: 139, stdout: "0\n1\n2\n3\n", trap: "segfault", steps: 81},
	{name: "freed read", body: `int *p = (int *)malloc(4 * sizeof(int));
    p[1] = 5;
    s = p[1];
    free(p);
    printf("%d\n", s);
    s = p[1];
    printf("%d\n", s);`,
		rc: 139, stdout: "5\n", trap: "segfault", steps: 45},
	{name: "freed write", body: `int *p = (int *)malloc(4 * sizeof(int));
    free(p);
    printf("freed\n");
    p[0] = 1;`,
		rc: 139, stdout: "freed\n", trap: "segfault", steps: 33},
	{name: "unmaterialized malloc", body: `int *p;
    p = malloc(16);
    p[1] = 7;
    int *q;
    q = malloc(24);
    s = q[5] + p[1];
    printf("%d %d\n", s, p[1]);`,
		rc: 0, stdout: "7 7\n", trap: "", steps: 50},
	{name: "row as value", body: `int *r = m[1];
    for (int j = 0; j < 3; j++) s += r[j];
    printf("%d %d\n", s, r[2]);`,
		rc: 0, stdout: "15 6\n", trap: "", steps: 63},
	{name: "row as target", pers: compiler.NVCSim(), body: `int r = 1;
    printf("before\n");
    m[r] = 5;`,
		rc: 139, stdout: "before\n", trap: "segfault", steps: 26},
	{name: "pointer compare", body: `int *p = &a[1];
    int *q = &a[2];
    int *z = NULL;
    printf("%d %d %d %d %d\n", p < q, p == q, q != p, z == p, p != NULL);
    for (int *e = p; e < q + 2; e++) s += *e;
    printf("%d\n", s);`,
		// Pointers into one block order by element offset, as gcc's do.
		rc: 0, stdout: "1 0 1 0 1\n90\n", trap: "", steps: 88},
	{name: "double counter", body: `for (double d = 0; d < 3; d++) printf("%g\n", d);
    double x = 1.5;
    x--;
    printf("%g %d\n", x, x < 2);`,
		rc: 0, stdout: "0\n1\n2\n0.5 1\n", trap: "", steps: 57},
	{name: "builtin constant", body: `for (int i = 0; i < 4 && i < RAND_MAX; i++) s += a[i];
    int RAND_MAX = 2;
    printf("%d %d %d\n", s, a[RAND_MAX], s < RAND_MAX);`,
		rc: 0, stdout: "100 30 0\n", trap: "", steps: 90},
	{name: "shadowed in a branch", body: `int x = 1;
    for (int i = 0; i < 3; i++) {
        if (i > 1) { int x = 3; s += a[x]; x++; }
        s += a[x];
        x++;
        printf("%d %d\n", s, x < 3);
    }
    printf("%d\n", x);`,
		rc: 0, stdout: "20 1\n50 0\n130 0\n4\n", trap: "", steps: 107},
	{name: "break and continue", body: `for (int i = 0; i < 4; i++) {
        if (i == 1) continue;
        if (i == 3) break;
        s += a[i];
    }
    while (1) { s++; if (s > 45) break; }
    printf("%d\n", s);`,
		rc: 0, stdout: "46\n", trap: "", steps: 135},
	{name: "continue only", body: `for (int i = 0; i < 4; i++) {
        if (i == 2) continue;
        s += a[i];
    }
    printf("%d\n", s);`,
		rc: 0, stdout: "70\n", trap: "", steps: 81},
	{name: "work-shared chunk", body: `#pragma omp parallel for reduction(+:s)
    for (int i = 0; i < 4; i++) s += a[i] * m[1][i % 3];
    printf("%d\n", s);`,
		rc: 0, stdout: "480\n", trap: "", steps: 78},
}

// TestFusedLeavesFallBack runs every row through checkCuts. It keeps
// the name of the fused closures the rows were first written for, which
// CI's GOMAXPROCS step selects it by.
func TestFusedLeavesFallBack(t *testing.T) {
	for _, row := range leafRows {
		t.Run(row.name, func(t *testing.T) {
			pers := row.pers
			if pers == nil {
				pers = compiler.ClangSim()
			}
			src := leafPrologue + "    " + row.body + "\n    return 0;\n}\n"
			checkCuts(t, pers, src, row.rc, row.stdout, row.trap, row.steps)
		})
	}
}

// checkCuts compiles src with pers and runs it in full, against rc,
// stdout, trap and steps, then cut at every step limit from 1 to its
// step count: a cut run takes exactly the steps it was allowed, traps
// on the step limit exactly when it is cut short, and has printed a
// prefix of the full run's output.
func checkCuts(t *testing.T, pers *compiler.Personality, src string, rc int, stdout, trap string, steps int64) {
	t.Helper()
	res := pers.Compile("test.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	full := Run(res.Object, Options{})
	if full.ReturnCode != rc || full.Stdout != stdout || full.Trap != trap || full.Steps != steps {
		t.Fatalf("rc %d stdout %q trap %q steps %d, want rc %d stdout %q trap %q steps %d",
			full.ReturnCode, full.Stdout, full.Trap, full.Steps, rc, stdout, trap, steps)
	}
	for l := int64(1); l <= full.Steps; l++ {
		r := Run(res.Object, Options{StepLimit: l})
		cut := l < full.Steps
		if r.Steps != min(l, full.Steps) || (r.Trap == "step-limit") != cut || !strings.HasPrefix(full.Stdout, r.Stdout) {
			t.Fatalf("StepLimit %d of %d: steps %d trap %q stdout %q", l, full.Steps, r.Steps, r.Trap, r.Stdout)
		}
	}
}

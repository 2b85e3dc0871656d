package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/testlang"
)

// loopsPrelude declares what the rows' bodies use: n is local 0, i 1,
// j 2, a 3 and x 4, so a loop's own variable is local 5.
const loopsPrelude = `#include <stdio.h>
int main() {
    int n = 8;
    int i = 0;
    int j = 0;
    int a[8];
    double x = 0.0;
`

// loopRows are work-shared loops under the OpenACC compiler (acc) and
// the OpenMP one (omp). err is the one error both report, empty for a
// loop in canonical form; form is then the plan's LoopForm as
// "var@binding op bound from start by step".
var loopRows = []struct {
	name     string
	acc, omp string
	err      string
	form     string
}{
	{name: "declared variable counted up",
		acc:  "#pragma acc parallel loop\nfor (int k = 0; k < n; k++) a[k] = k;",
		omp:  "#pragma omp parallel for\nfor (int k = 0; k < n; k++) a[k] = k;",
		form: "k@5 < n from 0 by +1"},
	{name: "assigned variable counted down by a stride",
		acc:  "#pragma acc parallel loop\nfor (i = n - 1; i >= 0; i -= 2) a[i] = i;",
		omp:  "#pragma omp parallel for\nfor (i = n - 1; i >= 0; i -= 2) a[i] = i;",
		form: "i@1 >= 0 from n - 1 by -2"},
	{name: "variable on the right of the condition",
		acc:  "#pragma acc parallel loop\nfor (int k = 0; n > k; ++k) a[k] = k;",
		omp:  "#pragma omp parallel for\nfor (int k = 0; n > k; ++k) a[k] = k;",
		form: "k@5 < n from 0 by +1"},
	{name: "not-equal condition counted down",
		acc:  "#pragma acc parallel loop\nfor (i = n; i != 0; i--) a[i - 1] = i;",
		omp:  "#pragma omp parallel for\nfor (i = n; i != 0; i--) a[i - 1] = i;",
		form: "i@1 != 0 from n by -1"},
	{name: "stride known only at run time",
		acc:  "#pragma acc parallel loop\nfor (int k = 0; k < n; k += j) a[k] = k;",
		omp:  "#pragma omp parallel for\nfor (int k = 0; k < n; k += j) a[k] = k;",
		form: "k@5 < n from 0 by +j"},
	{name: "assigned sum of the variable and a stride",
		acc:  "#pragma acc parallel loop\nfor (int k = 0; k < n; k = k + 2) a[k] = k;",
		omp:  "#pragma omp parallel for\nfor (int k = 0; k < n; k = k + 2) a[k] = k;",
		form: "k@5 < n from 0 by +2"},
	{name: "assigned sum of a stride and the variable",
		acc:  "#pragma acc parallel loop\nfor (int k = 0; k < n; k = j + k) a[k] = k;",
		omp:  "#pragma omp parallel for\nfor (int k = 0; k < n; k = j + k) a[k] = k;",
		form: "k@5 < n from 0 by +j"},
	{name: "assigned difference of the variable and a stride",
		acc:  "#pragma acc parallel loop\nfor (i = n - 1; i >= 0; i = i - 1) a[i] = i;",
		omp:  "#pragma omp parallel for\nfor (i = n - 1; i >= 0; i = i - 1) a[i] = i;",
		form: "i@1 >= 0 from n - 1 by -1"},

	// Rejected. Before the checker and the machine shared one canonical-
	// loop rule, every row from here up to "no condition" compiled.
	{name: "multiplied step",
		acc: "#pragma acc parallel\n{\n#pragma acc loop\nfor (int k = 1; k < 64; k *= 2) a[0] = k;\n}",
		omp: "#pragma omp parallel\n{\n#pragma omp for\nfor (int k = 1; k < 64; k *= 2) a[0] = k;\n}",
		err: `associated loop increment does not step loop variable "k" (not in canonical form)`},
	{name: "condition tests another variable",
		acc: "#pragma acc parallel loop\nfor (int k = 0; j < 8; k++) a[k] = k;",
		omp: "#pragma omp parallel for\nfor (int k = 0; j < 8; k++) a[k] = k;",
		err: `associated loop condition does not test loop variable "k" (not in canonical form)`},
	{name: "increment steps another variable",
		acc: "#pragma acc parallel loop\nfor (i = 0; i < n; j++) a[i] = i;",
		omp: "#pragma omp parallel for\nfor (i = 0; i < n; j++) a[i] = i;",
		err: `associated loop increment does not step loop variable "i" (not in canonical form)`},
	{name: "declared double loop variable",
		acc: "#pragma acc parallel loop\nfor (double y = 0.0; y < 1.0; y += 0.25) a[0] = 1;",
		omp: "#pragma omp parallel for\nfor (double y = 0.0; y < 1.0; y += 0.25) a[0] = 1;",
		err: `loop variable "y" has floating-point type (not in canonical form)`},
	{name: "assigned double loop variable",
		acc: "#pragma acc parallel loop\nfor (x = 0.0; x < 1.0; x += 0.25) a[0] = 1;",
		omp: "#pragma omp parallel for\nfor (x = 0.0; x < 1.0; x += 0.25) a[0] = 1;",
		err: `loop variable "x" has floating-point type (not in canonical form)`},
	{name: "no initialization",
		acc: "#pragma acc parallel loop\nfor (; i < n; i++) a[i] = i;",
		omp: "#pragma omp parallel for\nfor (; i < n; i++) a[i] = i;",
		err: `associated loop does not initialize one loop variable (not in canonical form)`},
	{name: "no condition",
		acc: "#pragma acc parallel loop\nfor (int k = 0; ; k++) { if (k >= n) break; }",
		omp: "#pragma omp parallel for\nfor (int k = 0; ; k++) { if (k >= n) break; }",
		err: `associated loop has no termination condition (not in canonical form)`},
	{name: "equality condition",
		acc: "#pragma acc parallel loop\nfor (int k = 0; k == 0; k++) a[k] = k;",
		omp: "#pragma omp parallel for\nfor (int k = 0; k == 0; k++) a[k] = k;",
		err: `associated loop condition is not in canonical form`},
}

// TestCanonicalLoops pins the one canonical-loop rule: which loops a
// work-sharing directive accepts, the error for those it does not, and
// the form the machine shares out for those it does.
func TestCanonicalLoops(t *testing.T) {
	for _, row := range loopRows {
		for _, tc := range []struct {
			pers *Personality
			body string
		}{{NVCSim(), row.acc}, {ClangSim(), row.omp}} {
			t.Run(tc.pers.Name+"/"+row.name, func(t *testing.T) {
				src := loopsPrelude + tc.body + "\n    printf(\"%d %d\\n\", a[0], i);\n    return 0;\n}\n"
				res := tc.pers.Compile("loop.c", src, testlang.LangC)
				if row.err != "" {
					if res.OK || !strings.Contains(res.Stderr, "error: "+row.err+"\n") || !strings.Contains(res.Stderr, " 1 error(s) generated") {
						t.Fatalf("stderr:\n%s\nwant the one error %q", res.Stderr, row.err)
					}
					return
				}
				if !res.OK {
					t.Fatalf("rejected:\n%s", res.Stderr)
				}
				var forms []string
				for _, plan := range res.Object.Plans {
					if f := plan.Loop; f != nil {
						forms = append(forms, loopForm(f))
					}
				}
				if len(forms) != 1 || forms[0] != row.form {
					t.Fatalf("forms %q, want %q", forms, row.form)
				}
				// The plan's form is the one the object records for the loop.
				if len(res.Object.Loops) != 1 {
					t.Fatalf("object records %d loop forms, want 1", len(res.Object.Loops))
				}
				for _, f := range res.Object.Loops {
					if got := loopForm(f); got != row.form {
						t.Fatalf("recorded form %q, want %q", got, row.form)
					}
				}
			})
		}
	}
}

// TestPlainLoopForms pins that the checker records the canonical form of
// every for statement, with or without a directive, by the same rule,
// and records none for a loop without one.
func TestPlainLoopForms(t *testing.T) {
	src := loopsPrelude + `    for (int k = 0; k < n; k++) a[k] = k;
    for (i = n - 1; i >= 0; i = i - 2) a[i] = i;
    for (int k = n; k != 0; --k) { for (j = 0; k > j; j += 3) x += 1.0; }
    for (int k = 0; k < n; k *= 2) a[0] = k;
    for (x = 0.0; x < 1.0; x += 0.5) a[0] = 1;
    for (int k = 0; ; k++) break;
    for (; i < n; i++) a[0] = 1;
    while (i < n) i++;
    printf("%d\n", a[0]);
    return 0;
}
`
	res := NVCSim().Compile("loops.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("rejected:\n%s", res.Stderr)
	}
	var got []string
	testlang.Walk(res.Object.Funcs["main"].Body, func(n testlang.Stmt) bool {
		if fs, ok := n.(*testlang.ForStmt); ok {
			if f := res.Object.Loops[fs]; f != nil {
				got = append(got, loopForm(f))
			} else {
				got = append(got, "-")
			}
		}
		return true
	})
	want := []string{"k@5 < n from 0 by +1", "i@1 >= 0 from n - 1 by -2", "k@6 != 0 from n by -1",
		"j@2 < k from 0 by +3", "-", "-", "-", "-"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("forms\n%q\nwant\n%q", got, want)
	}
}

func loopForm(f *LoopForm) string {
	step := "1"
	if f.Step != nil {
		step = testlang.RenderExpr(f.Step)
	}
	sign := "+"
	if f.Sign < 0 {
		sign = "-"
	}
	return fmt.Sprintf("%s %s %s from %s by %s%s", varList([]Var{{Name: f.Var.Name, Bind: f.Var.Bind}}),
		f.Op, testlang.RenderExpr(f.Bound), testlang.RenderExpr(f.Start), sign, step)
}

package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/testlang"
)

// boundsPrelude declares what the rows' bodies use: in f, x is local 0,
// n 1, p 2, a 3, m 4, s 5 and t 6; g is global 0. A body starts on
// line 10.
const boundsPrelude = `#include <stdlib.h>
int *g;
int h() { return g[0]; }
int f(int *x, int n) {
    int *p = (int *)malloc(16);
    int a[4];
    int m[2][2];
    int s = 0;
    int t = 0;
`

const boundsEpilogue = `
    return s;
}
int main() { return f(0, 4); }
`

// boundsRows are bodies of f under the OpenACC compiler (acc) and the
// OpenMP one (omp); an empty body skips that compiler. nvc and clang
// are the stderr of each compile, empty when it is clean. accLists and
// ompLists are the region analyses of each planned directive, in
// source order: its name, then the variables from outside its body
// that the body uses (DirPlan.Free) and, after "|", those it writes
// only unprotected (DirPlan.PlainWrites), as name@binding.
var boundsRows = []struct {
	name               string
	acc, omp           string
	nvc, clang         string
	accLists, ompLists string
}{
	// The OpenACC rule: a pointer the body takes from outside needs its
	// bounds from a clause on the construct, around it or inside it.
	{name: "pointer used in the body",
		acc: "#pragma acc parallel\n{ p[0] = 1; }",
		omp: "#pragma omp target\n{ p[0] = 1; }",
		nvc: `nvc t.c:10: error: Accelerator restriction: size of the GPU copy of "p" is unknown
nvc: 1 error(s) generated.
`,
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "pointer shadowed in an inner block before the use",
		acc: "#pragma acc parallel\n{ { int *p = 0; } p[0] = 1; }",
		omp: "#pragma omp target\n{ { int *p = 0; } p[0] = 1; }",
		nvc: `nvc t.c:10: error: Accelerator restriction: size of the GPU copy of "p" is unknown
nvc: 1 error(s) generated.
`,
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "pointer shadowed in an inner block after the use",
		acc: "#pragma acc parallel\n{ p[0] = 1; { int *p = 0; } }",
		omp: "#pragma omp target\n{ p[0] = 1; { int *p = 0; } }",
		nvc: `nvc t.c:10: error: Accelerator restriction: size of the GPU copy of "p" is unknown
nvc: 1 error(s) generated.
`,
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "shadowed before the use and covered by copyin",
		acc:      "#pragma acc parallel copyin(p[0:4])\n{ { int *p = 0; } p[0] = 1; }",
		omp:      "#pragma omp target map(to: p[0:4])\n{ { int *p = 0; } p[0] = 1; }",
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "shadowed after the use and covered by copyin",
		acc:      "#pragma acc parallel copyin(p[0:4])\n{ p[0] = 1; { int *p = 0; } }",
		omp:      "#pragma omp target map(to: p[0:4])\n{ p[0] = 1; { int *p = 0; } }",
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "pointer declared in the body",
		acc:      "#pragma acc parallel\n{ int *q = (int *)malloc(16); q[0] = 1; }",
		omp:      "#pragma omp target\n{ int *q = (int *)malloc(16); q[0] = 1; }",
		accLists: "parallel[|]",
		ompLists: "target[|]"},
	{name: "declared array",
		acc:      "#pragma acc parallel\n{ a[0] = 1; }",
		omp:      "#pragma omp target\n{ a[0] = 1; }",
		accLists: "parallel[a@3|]",
		ompLists: "target[a@3|]"},
	{name: "pointer parameter and global pointer",
		acc: "#pragma acc parallel\n{ x[0] = 1; g[0] = 2; }",
		omp: "#pragma omp target\n{ x[0] = 1; g[0] = 2; }",
		nvc: `nvc t.c:10: error: Accelerator restriction: size of the GPU copy of "x" is unknown
nvc t.c:10: error: Accelerator restriction: size of the GPU copy of "g" is unknown
nvc: 2 error(s) generated.
`,
		accLists: "parallel[x@0 g@g0|]",
		ompLists: "target[x@0 g@g0|]"},
	{name: "covered by its own copyin",
		acc:      "#pragma acc parallel copyin(p[0:4])\n{ s = p[0]; }",
		omp:      "#pragma omp target map(to: p[0:4])\n{ s = p[0]; }",
		accLists: "parallel[s@5 p@2|s@5]",
		ompLists: "target[s@5 p@2|s@5]"},
	{name: "covered by its own present",
		acc:      "#pragma acc parallel present(p[0:4])\n{ p[0] = 1; }",
		omp:      "#pragma omp target map(alloc: p[0:4])\n{ p[0] = 1; }",
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "covered by its own private",
		acc:      "#pragma acc parallel private(p)\n{ p[0] = 1; }",
		omp:      "#pragma omp target private(p)\n{ p[0] = 1; }",
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "covered by its own reduction",
		acc:      "#pragma acc parallel reduction(+:p)\n{ p[0] = 1; }",
		omp:      "#pragma omp target teams reduction(+:p)\n{ p[0] = 1; }",
		accLists: "parallel[p@2|]",
		ompLists: "target teams[p@2|]"},
	{name: "covered by an enclosing data region",
		acc:      "#pragma acc data copy(p[0:4])\n{\n#pragma acc parallel\n{ p[0] = 1; }\n}",
		omp:      "#pragma omp target data map(tofrom: p[0:4])\n{\n#pragma omp target\n{ p[0] = 1; }\n}",
		accLists: "data[|] parallel[p@2|]",
		ompLists: "target data[|] target[p@2|]"},
	{name: "covered by a nested loop's clause",
		acc:      "#pragma acc parallel\n{\np[0] = 1;\n#pragma acc loop private(p)\nfor (int i = 0; i < 4; i++) { s += i; }\n}",
		omp:      "#pragma omp target\n{\np[0] = 1;\n#pragma omp parallel for private(p)\nfor (int i = 0; i < 4; i++) { s += i; }\n}",
		accLists: "parallel[p@2 s@5|s@5] loop[s@5|s@5]",
		ompLists: "target[p@2 s@5|s@5] parallel for[s@5|s@5]"},
	{name: "not covered by a sibling construct's clause",
		acc: "#pragma acc parallel copyin(p[0:4])\n{ p[0] = 1; }\n#pragma acc parallel\n{ p[1] = 1; }",
		omp: "#pragma omp target map(to: p[0:4])\n{ p[0] = 1; }\n#pragma omp target\n{ p[1] = 1; }",
		nvc: `nvc t.c:12: error: Accelerator restriction: size of the GPU copy of "p" is unknown
nvc: 1 error(s) generated.
`,
		accLists: "parallel[p@2|] parallel[p@2|]",
		ompLists: "target[p@2|] target[p@2|]"},
	{name: "not covered by a clause nested in a sibling",
		acc: "#pragma acc data copyin(a)\n{\n#pragma acc parallel\n{\n#pragma acc loop private(p)\nfor (int i = 0; i < 4; i++) { s += i; }\n}\n#pragma acc parallel\n{ p[0] = 1; }\n}",
		omp: "#pragma omp target data map(to: a)\n{\n#pragma omp target\n{\n#pragma omp parallel for private(p)\nfor (int i = 0; i < 4; i++) { s += i; }\n}\n#pragma omp target\n{ p[0] = 1; }\n}",
		nvc: `nvc t.c:17: error: Accelerator restriction: size of the GPU copy of "p" is unknown
nvc: 1 error(s) generated.
`,
		accLists: "data[|] parallel[s@5|s@5] loop[s@5|s@5] parallel[p@2|]",
		ompLists: "target data[|] target[s@5|s@5] parallel for[s@5|s@5] target[p@2|]"},
	{name: "covered by a misspelled nested directive's clause",
		acc: "#pragma acc parallel\n{\n#pragma acc lop private(p)\nfor (int i = 0; i < 4; i++) { p[i] = 1; }\n}",
		omp: "#pragma omp target\n{\n#pragma omp paralel for private(p)\nfor (int i = 0; i < 4; i++) { p[i] = 1; }\n}",
		nvc: `nvc t.c:12: error: invalid text in OpenACC directive: unknown directive "lop"
nvc: 1 error(s) generated.
`,
		clang: `clang t.c:12: error: invalid text in OpenMP directive: unknown directive "paralel"
clang: 1 error(s) generated.
`,
		accLists: "parallel[p@2|]",
		ompLists: "target[p@2|]"},
	{name: "pointer used only in a nested directive's clauses",
		acc:      "#pragma acc parallel\n{\n#pragma acc kernels if(p != 0) num_gangs(p[0])\n{ s = 1; }\n}",
		omp:      "#pragma omp target\n{\n#pragma omp parallel if(p != 0) num_threads(p[0])\n{ s = 1; }\n}",
		accLists: "parallel[s@5|s@5] kernels[s@5|s@5]",
		ompLists: "target[s@5|s@5] parallel[s@5|s@5]"},

	// What the lists hold: the device mapping reads Free, and a parallel
	// region's workers copy the scalars in PlainWrites.
	{name: "a callee's uses do not count",
		acc:      "#pragma acc parallel\n{ s = h(); }",
		omp:      "#pragma omp parallel\n{ s = h(); }",
		accLists: "parallel[s@5|s@5]",
		ompLists: "parallel[s@5|s@5]"},
	{name: "assignments and increments are writes",
		acc:      "#pragma acc parallel\n{ s = 1; n++; --n; t += 2; }",
		omp:      "#pragma omp parallel\n{ s = 1; n++; --n; t += 2; }",
		accLists: "parallel[s@5 n@1 t@6|s@5 n@1 t@6]",
		ompLists: "parallel[s@5 n@1 t@6|s@5 n@1 t@6]"},
	{name: "an address taken, a store through a pointer and an element are not writes",
		acc: "#pragma acc parallel\n{ int *q = &s; *q = 1; *p = 2; a[0] = 3; }",
		omp: "#pragma omp parallel\n{ int *q = &s; *q = 1; *p = 2; a[0] = 3; }",
		nvc: `nvc t.c:10: error: Accelerator restriction: size of the GPU copy of "p" is unknown
nvc: 1 error(s) generated.
`,
		accLists: "parallel[s@5 p@2 a@3|]",
		ompLists: "parallel[s@5 p@2 a@3|]"},
	{name: "atomic and critical protect a write",
		acc:      "#pragma acc parallel\n{\n#pragma acc atomic update\ns += 1;\n}",
		omp:      "#pragma omp parallel\n{\n#pragma omp critical\n{ s += 1; }\n#pragma omp atomic\nn++;\n}",
		accLists: "parallel[s@5|] atomic[|]",
		ompLists: "parallel[s@5 n@1|] critical[|] atomic[|]"},
	{name: "single and master protect a write",
		omp:      "#pragma omp parallel\n{\n#pragma omp single\n{ s = 1; }\n#pragma omp master\n{ n = 2; }\n}",
		ompLists: "parallel[s@5 n@1|] single[|] master[|]"},
	{name: "a protected write protects the variable's plain ones",
		acc:      "#pragma acc parallel\n{ s = 1;\n#pragma acc atomic\ns++;\n}",
		omp:      "#pragma omp parallel\n{ s = 1;\n#pragma omp atomic\ns++;\n}",
		accLists: "parallel[s@5|] atomic[|]",
		ompLists: "parallel[s@5|] atomic[|]"},
	{name: "a region opened inside a protected one writes plainly",
		omp:      "#pragma omp parallel\n{\n#pragma omp critical\n{\n#pragma omp parallel\n{ s = 1; }\n}\n}",
		ompLists: "parallel[s@5|] critical[|] parallel[s@5|s@5]"},
	{name: "a nested reduction variable is protected",
		acc:      "#pragma acc parallel\n{\n#pragma acc loop reduction(+:s)\nfor (int i = 0; i < 4; i++) { s += i; }\n}",
		omp:      "#pragma omp parallel\n{\n#pragma omp for reduction(+:s)\nfor (int i = 0; i < 4; i++) { s += i; }\n}",
		accLists: "parallel[s@5|] loop[s@5|]",
		ompLists: "parallel[s@5|] for[s@5|]"},
	{name: "a compute block's reduction variable is protected in its loop directive",
		acc:      "#pragma acc parallel reduction(+:s)\n{\n#pragma acc loop\nfor (int i = 0; i < 4; i++) { s += i; t = i; }\n}",
		omp:      "#pragma omp target teams reduction(+:s)\n{\n#pragma omp distribute\nfor (int i = 0; i < 4; i++) { s += i; t = i; }\n}",
		accLists: "parallel[s@5 t@6|t@6] loop[s@5 t@6|t@6]",
		ompLists: "target teams[s@5 t@6|t@6] distribute[s@5 t@6|t@6]"},
	{name: "the construct's own clause variables are protected",
		acc:      "#pragma acc parallel private(s) firstprivate(n) reduction(+:t)\n{ s = 1; n = 2; t = 3; }",
		omp:      "#pragma omp parallel private(s) firstprivate(n) reduction(+:t)\n{ s = 1; n = 2; t = 3; }",
		accLists: "parallel[s@5 n@1 t@6|]",
		ompLists: "parallel[s@5 n@1 t@6|]"},
	{name: "a loop directive's writes count from its loop body on",
		acc:      "#pragma acc parallel\n{\n#pragma acc loop\nfor (s = 0; s < n; s++) { t = s; }\n}",
		omp:      "#pragma omp parallel\n{\n#pragma omp for\nfor (s = 0; s < n; s++) { t = s; }\n}",
		accLists: "parallel[s@5 n@1 t@6|s@5 t@6] loop[s@5 n@1 t@6|t@6]",
		ompLists: "parallel[s@5 n@1 t@6|s@5 t@6] for[s@5 n@1 t@6|t@6]"},
	{name: "a loop variable declared in the loop is inside",
		acc:      "#pragma acc parallel loop\nfor (int i = 0; i < n; i++) { t += a[i]; }",
		omp:      "#pragma omp parallel for\nfor (int i = 0; i < n; i++) { t += a[i]; }",
		accLists: "parallel loop[n@1 t@6 a@3|t@6]",
		ompLists: "parallel for[n@1 t@6 a@3|t@6]"},
	{name: "each variable once, in first-use order",
		acc:      "#pragma acc parallel\n{ t = s + n; s = t + m[s][n]; }",
		omp:      "#pragma omp parallel\n{ t = s + n; s = t + m[s][n]; }",
		accLists: "parallel[t@6 s@5 n@1 m@4|t@6 s@5]",
		ompLists: "parallel[t@6 s@5 n@1 m@4|t@6 s@5]"},
}

// TestDeviceBounds pins which pointers the OpenACC compiler rejects for
// unknown device bounds, which the OpenMP one never does, and the
// region analyses the checker records on each plan, by binding.
func TestDeviceBounds(t *testing.T) {
	for _, row := range boundsRows {
		for _, tc := range []struct {
			pers         *Personality
			body         string
			stderr, want string
		}{
			{NVCSim(), row.acc, row.nvc, row.accLists},
			{ClangSim(), row.omp, row.clang, row.ompLists},
		} {
			if tc.body == "" {
				continue
			}
			t.Run(tc.pers.Name+"/"+row.name, func(t *testing.T) {
				src := boundsPrelude + tc.body + boundsEpilogue
				res := tc.pers.Compile("t.c", src, testlang.LangC)
				if res.Stderr != tc.stderr {
					t.Errorf("stderr:\n%s\nwant:\n%s", res.Stderr, tc.stderr)
				}
				if got := regionLists(t, tc.pers, src); got != tc.want {
					t.Errorf("lists %q, want %q", got, tc.want)
				}
			})
		}
	}
}

// regionLists checks src and renders the region analyses of f's
// planned directives in source order.
func regionLists(t *testing.T, pers *Personality, src string) string {
	file, errs := testlang.ParseFile(src, testlang.LangC, pers.Dialect)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	c := &checker{pers: pers, file: file}
	c.check()
	var out []string
	for _, ds := range file.Directives() {
		if plan := c.plans[ds]; plan != nil {
			out = append(out, fmt.Sprintf("%s[%s|%s]", plan.Name, varList(plan.Free), varList(plan.PlainWrites)))
		}
	}
	return strings.Join(out, " ")
}

func varList(vars []Var) string {
	out := make([]string, len(vars))
	for i, v := range vars {
		if n, ok := v.Bind.Local(); ok {
			out[i] = fmt.Sprintf("%s@%d", v.Name, n)
		} else if g, ok := v.Bind.Global(); ok {
			out[i] = fmt.Sprintf("%s@g%d", v.Name, g)
		} else {
			out[i] = v.Name + "@?"
		}
	}
	return strings.Join(out, " ")
}

package compiler

import (
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/testlang"
)

// jumpRows are programs whose break, continue or return either stays
// inside its function or directive body, or would leave it. funcs goes
// before main and body inside it, after the declarations of a and s.
// err is empty for an accepted row, else text the compiler's error
// must contain. dialects nil means both.
var jumpRows = []struct {
	name     string
	dialects []spec.Dialect
	funcs    string
	body     string
	err      string
}{
	// Rejected: no loop between the jump and its function's body.
	{name: "break at function top level", body: `break;`, err: "'break' statement not in loop"},
	{name: "continue at function top level", body: `continue;`, err: "'continue' statement not in loop"},
	{name: "break under an if", body: `if (s == 0) break;`, err: "'break' statement not in loop"},
	{name: "continue under an if", body: `if (s == 0) { s++; continue; }`, err: "'continue' statement not in loop"},
	{name: "break in a callee", funcs: `void stop() { break; }`,
		body: `for (int i = 0; i < 4; i++) stop();`, err: "'break' statement not in loop"},
	{name: "continue in a callee", funcs: `void skip(int i) { if (i > 1) continue; }`,
		body: `while (s < 4) { s++; skip(s); }`, err: "'continue' statement not in loop"},

	// Rejected: a loop encloses the directive, but not the jump inside
	// its body.
	{name: "break leaving omp parallel", dialects: onlyOMP, body: `for (int i = 0; i < 4; i++) {
#pragma omp parallel
    { break; }
}`, err: "'break' statement not in loop"},
	{name: "continue leaving omp parallel", dialects: onlyOMP, body: `while (s < 4) {
    s++;
#pragma omp parallel
    { if (s > 1) continue; }
}`, err: "'continue' statement not in loop"},
	{name: "break leaving omp critical", dialects: onlyOMP, body: `for (int i = 0; i < 4; i++) {
#pragma omp critical
    break;
}`, err: "'break' statement not in loop"},
	{name: "continue leaving omp critical", dialects: onlyOMP, body: `for (int i = 0; i < 4; i++) {
#pragma omp critical
    { s++; continue; }
}`, err: "'continue' statement not in loop"},
	{name: "break leaving acc data", dialects: onlyACC, body: `for (int i = 0; i < 4; i++) {
#pragma acc data copy(a)
    { break; }
}`, err: "'break' statement not in loop"},
	{name: "continue leaving acc data", dialects: onlyACC, body: `for (int i = 0; i < 4; i++) {
#pragma acc data copy(a)
    { if (i > 1) continue; }
}`, err: "'continue' statement not in loop"},
	{name: "break leaving acc parallel", dialects: onlyACC, body: `while (s < 4) {
    s++;
#pragma acc parallel
    { a[0] = s; break; }
}`, err: "'break' statement not in loop"},
	{name: "continue leaving acc parallel", dialects: onlyACC, body: `for (int i = 0; i < 4; i++) {
#pragma acc parallel
    { continue; }
}`, err: "'continue' statement not in loop"},

	// Rejected: a return inside a directive body, loop or not.
	{name: "return inside omp parallel", dialects: onlyOMP, body: `#pragma omp parallel
{ return 1; }`, err: "cannot return from OpenMP region"},
	{name: "return inside omp critical", dialects: onlyOMP, body: `for (int i = 0; i < 4; i++) {
#pragma omp critical
    return i;
}`, err: "cannot return from OpenMP region"},
	{name: "return from a loop inside omp parallel", dialects: onlyOMP, body: `#pragma omp parallel
{ for (int i = 0; i < 4; i++) if (i == 2) return 0; }`, err: "cannot return from OpenMP region"},
	{name: "return inside acc data", dialects: onlyACC, body: `#pragma acc data copy(a)
{ return 1; }`, err: "cannot return from OpenACC region"},
	{name: "return inside acc parallel", dialects: onlyACC, body: `#pragma acc parallel
{ a[0] = 1; return 0; }`, err: "cannot return from OpenACC region"},

	// Accepted.
	{name: "jumps in nested loops", body: `for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
        if (j == i) break;
        if (j == 1) continue;
        s += j;
    }
    while (s < 100) { s++; if (s % 2 == 0) continue; if (s > 50) break; }
    if (i == 3) return s;
}`},
	{name: "return from nested loops in a callee", funcs: `int find(int n) {
    for (int i = 0; i < n; i++)
        while (i > 2) return i;
    return -1;
}`, body: `s = find(4);`},
	{name: "loop inside omp parallel", dialects: onlyOMP, body: `#pragma omp parallel
{
    for (int i = 0; i < 4; i++) { if (i == 1) continue; if (i == 2) break; }
}`},
	{name: "loop inside omp critical", dialects: onlyOMP, body: `#pragma omp critical
while (s < 4) { s++; if (s == 2) continue; break; }`},
	{name: "loop inside acc data", dialects: onlyACC, body: `#pragma acc data copy(a)
{
    for (int i = 0; i < 4; i++) { if (i == 1) continue; if (i == 2) break; }
}`},
	{name: "loop inside acc parallel", dialects: onlyACC, body: `#pragma acc parallel
{
    for (int i = 0; i < 4; i++) { if (i == 1) continue; a[i] = i; if (i == 2) break; }
}`},
	{name: "jumps in an omp work-shared loop", dialects: onlyOMP, body: `#pragma omp parallel for
for (int i = 0; i < 4; i++) { if (i == 1) continue; if (i == 2) break; a[i] = i; }`},
	{name: "jumps in an acc work-shared loop", dialects: onlyACC, body: `#pragma acc parallel loop
for (int i = 0; i < 4; i++) { if (i == 1) continue; if (i == 2) break; a[i] = i; }`},
}

var (
	onlyACC = []spec.Dialect{spec.OpenACC}
	onlyOMP = []spec.Dialect{spec.OpenMP}
)

// TestJumpsStayInsideBodies compiles every row with each dialect's
// compiler (NVCSim for OpenACC, ClangSim for OpenMP): a break or
// continue needs a loop between it and the nearest function or
// directive body, and a return must not be inside a directive body.
func TestJumpsStayInsideBodies(t *testing.T) {
	for _, row := range jumpRows {
		dialects := row.dialects
		if dialects == nil {
			dialects = []spec.Dialect{spec.OpenACC, spec.OpenMP}
		}
		for _, d := range dialects {
			pers := ForDialect(d)
			t.Run(pers.Name+"/"+row.name, func(t *testing.T) {
				src := "#include <stdio.h>\n" + row.funcs + "\nint main() {\n    int a[4] = {0, 0, 0, 0};\n    int s = 0;\n" +
					row.body + "\n    printf(\"%d %d\\n\", s, a[0]);\n    return 0;\n}\n"
				res := pers.Compile("jump.c", src, testlang.LangC)
				switch {
				case row.err == "" && !res.OK:
					t.Fatalf("rejected:\n%s", res.Stderr)
				case row.err != "" && res.OK:
					t.Fatalf("accepted; want an error containing %q", row.err)
				case row.err != "" && !strings.Contains(res.Stderr, row.err):
					t.Fatalf("stderr does not contain %q:\n%s", row.err, res.Stderr)
				}
			})
		}
	}
}

package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/testlang"
)

// scopeRows are bodies of main (line 1 is "int main() {", so the body
// starts on line 2) whose declarations sit in bare statement bodies,
// inner blocks and directive bodies. PARALLEL and LOOP stand for the
// dialect's parallel construct and combined parallel loop. c and cpp
// are empty when the row compiles as C or as C++, else text its error
// must contain. binds pins, for each language the row compiles in, what
// main's variable uses bind (bindings). Every rejected row compiled
// before statement bodies got scopes of their own.
var scopeRows = []struct {
	name   string
	body   string
	c, cpp string
	binds  string
}{
	{name: "bare if body", body: `int x = 1;
if (x) int y = x;
return x;`,
		c:     "a declaration cannot be the body of 'if' in C",
		binds: "locals=2 x@3=2 x@3=2 x@4=2"},
	{name: "bare else body", body: `int x = 1;
if (x) x = 2; else int y = x;
return x;`,
		c:     "a declaration cannot be the body of 'else' in C",
		binds: "locals=2 x@3=2 x@3=2 x@3=2 x@4=2"},
	{name: "bare while body", body: `int x = 1;
while (x < 3) int y = x++;
return x;`,
		c:     "a declaration cannot be the body of 'while' in C",
		binds: "locals=2 x@3=2 x@3=2 x@4=2"},
	{name: "bare for body", body: `int x = 1;
for (int i = 0; i < 3; i++) int x = i;
return x;`,
		c:     "a declaration cannot be the body of 'for' in C",
		binds: "locals=3 i@3=3 i@3=3 i@3=3 x@4=2"},
	{name: "bare directive body", body: `int x = 1;
#pragma PARALLEL
int y = x;
return x;`,
		c:     "a declaration cannot be the body of a directive in C",
		binds: "locals=2 x@4=2 x@5=2"},
	{name: "bare loop directive body", body: `int x = 1;
#pragma LOOP
for (int i = 0; i < 3; i++) int y = i + x;
return x;`,
		c:     "a declaration cannot be the body of 'for' in C",
		binds: "locals=3 i@4=4 i@4=4 i@4=4 x@4=2 x@5=2"},
	{name: "later use of a body-scoped declaration", body: `int x = 1;
if (x) int y = 2;
return y;`,
		c:   "a declaration cannot be the body of 'if' in C",
		cpp: `use of undeclared identifier "y"`},
	{name: "bare body shadows an outer name", body: `int x = 1, y = 1;
{
    if (x) int y = 2;
    y = y + 1;
}
return y;`,
		c:     "a declaration cannot be the body of 'if' in C",
		binds: "locals=3 x@4=2 y@5=2 y@5=2 y@7=2"},
	{name: "untaken declaration falls back to the outer name", body: `int x = 1;
int s = 0;
for (int c = 0; c < 3; c++) {
    if (c == 1) int x = 3;
    s = s * 10 + x;
}
printf("%d %d\n", x, s);
return 0;`,
		c:     "a declaration cannot be the body of 'if' in C",
		binds: "locals=4 c@4=4 c@4=4 c@5=4 s@6=3 s@6=3 x@6=2 x@8=2 s@8=3"},
	{name: "loop condition ignores its bare body's declaration", body: `int x = 0, y = 0, n = 0;
{
    while (x < 5) int x = 10 + n++;
    printf("%d %d\n", x, n);
}
for (int i = 0; i < 3 && y < 5; i++) int y = 7 + n++;
printf("%d %d\n", y, n);
return 0;`,
		c:     "a declaration cannot be the body of 'while' in C",
		binds: "locals=6 x@4=2 n@4=2 x@5=2 n@5=2 i@7=7 y@7=2 i@7=7 n@7=2 y@8=2 n@8=2"},
	{name: "shadowing in an inner block", body: `int x = 1;
{
    int x = 2;
    x = x + 1;
}
return x;`,
		binds: "locals=2 x@5=4 x@5=4 x@7=2"},
	{name: "shadowing in a directive body", body: `int x = 1, s = 0;
#pragma PARALLEL
{
    int x = 2;
    s = x;
}
return x + s;`,
		binds: "locals=3 s@6=2 x@6=5 x@8=2 s@8=2"},
	{name: "clause variable shadowed inside its region", body: `int s = 0, n = 4;
#pragma LOOP reduction(+:s)
for (int i = 0; i < n; i++) {
    int s = i;
    s = s + 1;
}
return s;`,
		binds: "locals=4 i@4=4 n@4=2 i@4=4 i@5=4 s@6=5 s@6=5 s@8=2 | s@3=2"},
}

// TestNameScopes compiles every row as C and as C++ under both
// personalities.
func TestNameScopes(t *testing.T) {
	for _, pers := range []*Personality{NVCSim(), ClangSim()} {
		parallel, loop := "acc parallel", "acc parallel loop"
		if pers.Dialect == spec.OpenMP {
			parallel, loop = "omp parallel", "omp parallel for"
		}
		for _, row := range scopeRows {
			body := strings.NewReplacer("PARALLEL", parallel, "LOOP", loop).Replace(row.body)
			src := "int main() {\n" + body + "\n}\n"
			for _, lang := range []testlang.Language{testlang.LangC, testlang.LangCPP} {
				want := row.c
				if lang == testlang.LangCPP {
					want = row.cpp
				}
				t.Run(fmt.Sprintf("%s/%s/%s", pers.Name, lang, row.name), func(t *testing.T) {
					res := pers.Compile("scope"+lang.Ext(), src, lang)
					switch {
					case want == "" && !res.OK:
						t.Fatalf("compile failed:\n%s", res.Stderr)
					case want != "" && (res.OK || !strings.Contains(res.Stderr, want)):
						t.Fatalf("stderr %q, want an error containing %q", res.Stderr, want)
					case want == "":
						if got := bindings(t, res.Object); got != row.binds {
							t.Fatalf("bindings %q, want %q", got, row.binds)
						}
					}
				})
			}
		}
	}
}

// bindings renders what each variable use in main binds, in the order
// testlang.WalkExprs visits them: name@line=L for a parameter or local
// declared on line L, =gL for a global, =- for no variable. The clause
// variables of main's directives follow a "|". It fails the test unless
// main numbers its declarations densely.
func bindings(t *testing.T, obj *Object) string {
	t.Helper()
	fd := obj.Funcs["main"]
	lines := make([]int, fd.Locals)
	for i := range fd.Params {
		lines[i] = fd.Pos()
	}
	testlang.Walk(fd.Body, func(s testlang.Stmt) bool {
		if ds, ok := s.(*testlang.DeclStmt); ok {
			for _, d := range ds.Decls {
				n, ok := d.Bind.Local()
				if !ok || n < len(fd.Params) || n >= len(lines) || lines[n] != 0 {
					t.Fatalf("declaration of %s on line %d numbered %v, of %d", d.Name, d.Pos(), d.Bind, fd.Locals)
				}
				lines[n] = d.Pos()
			}
		}
		return true
	})
	for n, line := range lines {
		if line == 0 {
			t.Fatalf("no declaration numbered %d of %d", n, fd.Locals)
		}
	}
	of := func(b testlang.Binding) string {
		if n, ok := b.Local(); ok {
			return fmt.Sprint(lines[n])
		}
		if g, ok := b.Global(); ok {
			return fmt.Sprint("g", obj.Globals[g].Pos())
		}
		return "-"
	}
	out := []string{fmt.Sprint("locals=", fd.Locals)}
	testlang.WalkExprs(fd.Body, func(e testlang.Expr) {
		if id, ok := e.(*testlang.IdentExpr); ok {
			out = append(out, fmt.Sprintf("%s@%d=%s", id.Name, id.Pos(), of(id.Bind)))
		}
	})
	var clauses []string
	testlang.Walk(fd.Body, func(s testlang.Stmt) bool {
		ds, ok := s.(*testlang.DirectiveStmt)
		if !ok || obj.Plans[ds] == nil {
			return true
		}
		plan := obj.Plans[ds]
		add := func(name string, b testlang.Binding) {
			clauses = append(clauses, fmt.Sprintf("%s@%d=%s", name, ds.Pos(), of(b)))
		}
		for _, op := range plan.Data {
			for _, sec := range op.Sections {
				add(sec.Name, sec.Bind)
			}
		}
		for _, v := range plan.Private {
			add(v.Name, v.Bind)
		}
		for _, v := range plan.FirstPrivate {
			add(v.Name, v.Bind)
		}
		for _, red := range plan.Reductions {
			for _, v := range red.Vars {
				add(v.Name, v.Bind)
			}
		}
		return true
	})
	if len(clauses) > 0 {
		out = append(append(out, "|"), clauses...)
	}
	return strings.Join(out, " ")
}

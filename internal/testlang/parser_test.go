package testlang

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

const helloACC = `
#include <stdio.h>
#include <stdlib.h>
#define N 1024

int main()
{
    int *a = (int *)malloc(N * sizeof(int));
    int sum = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i;
    }
#pragma acc parallel loop reduction(+:sum) copyin(a[0:N])
    for (int i = 0; i < N; i++) {
        sum += a[i];
    }
    if (sum != (N - 1) * N / 2) {
        printf("FAIL\n");
        return 1;
    }
    printf("PASS\n");
    free(a);
    return 0;
}
`

func mustParse(t *testing.T, src string, lang Language, d spec.Dialect) *File {
	t.Helper()
	f, errs := ParseFile(src, lang, d)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func TestParseCompleteTest(t *testing.T) {
	f := mustParse(t, helloACC, LangC, spec.OpenACC)
	if len(f.Includes) != 2 {
		t.Fatalf("includes = %v", f.Includes)
	}
	if len(f.Decls) != 1 {
		t.Fatalf("decls = %d, want 1", len(f.Decls))
	}
	fd, ok := f.Decls[0].(*FuncDecl)
	if !ok || fd.Name != "main" {
		t.Fatalf("decl 0 = %#v", f.Decls[0])
	}
	dirs := f.Directives()
	if len(dirs) != 1 {
		t.Fatalf("directives = %d, want 1", len(dirs))
	}
	d := dirs[0]
	if d.Dir.Name != "parallel loop" || !d.Dir.Known {
		t.Fatalf("directive = %+v", d.Dir)
	}
	if len(d.Dir.Clauses) != 2 {
		t.Fatalf("clauses = %+v", d.Dir.Clauses)
	}
	if _, ok := d.Body.(*ForStmt); !ok {
		t.Fatalf("directive body is %T, want *ForStmt", d.Body)
	}
}

func TestParseMissingOpeningBrace(t *testing.T) {
	src := strings.Replace(helloACC, "int main()\n{", "int main()\n", 1)
	_, errs := ParseFile(src, LangC, spec.OpenACC)
	if len(errs) == 0 {
		t.Fatal("removed opening brace parsed without errors")
	}
}

func TestParseMissingInnerBrace(t *testing.T) {
	src := strings.Replace(helloACC, "for (int i = 0; i < N; i++) {\n        a[i] = i;", "for (int i = 0; i < N; i++) \n        a[i] = i;", 1)
	_, errs := ParseFile(src, LangC, spec.OpenACC)
	if len(errs) == 0 {
		t.Fatal("unbalanced braces parsed without errors")
	}
}

func TestParseTruncatedFile(t *testing.T) {
	// Removing the last bracketed section *and* its closing brace
	// leaves the file unbalanced.
	idx := strings.LastIndex(helloACC, "{")
	_, errs := ParseFile(helloACC[:idx], LangC, spec.OpenACC)
	if len(errs) == 0 {
		t.Fatal("truncated file parsed without errors")
	}
}

func TestParseBalancedBlockRemovalStillParses(t *testing.T) {
	// Removing a complete balanced block (the error check) must still
	// parse: this is the "removed last bracketed section" mutation the
	// paper found hardest for the pipeline to catch.
	src := strings.Replace(helloACC, `    if (sum != (N - 1) * N / 2) {
        printf("FAIL\n");
        return 1;
    }
`, "", 1)
	f := mustParse(t, src, LangC, spec.OpenACC)
	if len(f.Decls) != 1 {
		t.Fatal("unexpected decl count")
	}
}

func TestParseGlobalsAndArrays(t *testing.T) {
	src := `
double data[100][20];
int counter = 0;
const double eps = 1e-6;
int helper(int x) { return x + 1; }
int main() { return helper(counter); }
`
	f := mustParse(t, src, LangC, spec.OpenMP)
	if len(f.Decls) != 5 {
		t.Fatalf("decls = %d, want 5", len(f.Decls))
	}
	vd := f.Decls[0].(*VarDecl)
	if vd.Name != "data" || len(vd.ArrayDims) != 2 {
		t.Fatalf("data decl = %+v", vd)
	}
	eps := f.Decls[2].(*VarDecl)
	if !eps.Const || eps.Init == nil {
		t.Fatalf("eps decl = %+v", eps)
	}
}

func TestParseMultiDeclarators(t *testing.T) {
	src := `int main() { int i = 0, j = 1, *p; double x, y[4]; return i + j; }`
	f := mustParse(t, src, LangC, spec.OpenMP)
	body := f.Decls[0].(*FuncDecl).Body
	ds := body.Stmts[0].(*DeclStmt)
	if len(ds.Decls) != 3 {
		t.Fatalf("first decl stmt has %d declarators", len(ds.Decls))
	}
	if ds.Decls[2].Name != "p" || ds.Decls[2].Type.Ptr != 1 {
		t.Fatalf("p = %+v", ds.Decls[2])
	}
	ds2 := body.Stmts[1].(*DeclStmt)
	if len(ds2.Decls) != 2 || len(ds2.Decls[1].ArrayDims) != 1 {
		t.Fatalf("second decl stmt = %+v", ds2)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
int main() {
    int n = 0;
    while (n < 10) {
        n++;
        if (n == 5) continue;
        if (n > 8) break;
    }
    for (;;) { break; }
    return n > 0 ? 0 : 1;
}
`
	f := mustParse(t, src, LangC, spec.OpenMP)
	body := f.Decls[0].(*FuncDecl).Body
	if _, ok := body.Stmts[1].(*WhileStmt); !ok {
		t.Fatalf("stmt 1 = %T", body.Stmts[1])
	}
	fs, ok := body.Stmts[2].(*ForStmt)
	if !ok || fs.Init != nil || fs.Cond != nil || fs.Post != nil {
		t.Fatalf("empty for = %+v", body.Stmts[2])
	}
	rs := body.Stmts[3].(*ReturnStmt)
	if _, ok := rs.X.(*CondExpr); !ok {
		t.Fatalf("return expr = %T", rs.X)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `int main() { int x = 1 + 2 * 3; int y = (1 + 2) * 3; return x == 7 && y == 9; }`
	f := mustParse(t, src, LangC, spec.OpenMP)
	body := f.Decls[0].(*FuncDecl).Body
	x := body.Stmts[0].(*DeclStmt).Decls[0].Init.(*BinaryExpr)
	if x.Op != "+" {
		t.Fatalf("x init top op = %q, want +", x.Op)
	}
	if r, ok := x.R.(*BinaryExpr); !ok || r.Op != "*" {
		t.Fatalf("x init right = %#v", x.R)
	}
	y := body.Stmts[1].(*DeclStmt).Decls[0].Init.(*BinaryExpr)
	if y.Op != "*" {
		t.Fatalf("y init top op = %q, want *", y.Op)
	}
}

func TestParseCastAndSizeof(t *testing.T) {
	src := `int main() { double *p = (double *)malloc(10 * sizeof(double)); return p != 0; }`
	f := mustParse(t, src, LangC, spec.OpenMP)
	init := f.Decls[0].(*FuncDecl).Body.Stmts[0].(*DeclStmt).Decls[0].Init
	cast, ok := init.(*CastExpr)
	if !ok {
		t.Fatalf("init = %T, want cast", init)
	}
	if cast.To.Base != "double" || cast.To.Ptr != 1 {
		t.Fatalf("cast type = %v", cast.To)
	}
	call, ok := cast.X.(*CallExpr)
	if !ok || call.Fun != "malloc" {
		t.Fatalf("cast operand = %#v", cast.X)
	}
	if _, ok := call.Args[0].(*BinaryExpr).R.(*SizeofExpr); !ok {
		t.Fatalf("malloc arg = %#v", call.Args[0])
	}
}

func TestParseStandaloneDirective(t *testing.T) {
	src := `
int main() {
    int a[10];
#pragma acc enter data copyin(a[0:10])
#pragma acc update host(a[0:10])
#pragma acc exit data copyout(a[0:10])
    return 0;
}
`
	f := mustParse(t, src, LangC, spec.OpenACC)
	dirs := f.Directives()
	if len(dirs) != 3 {
		t.Fatalf("directives = %d, want 3", len(dirs))
	}
	for _, d := range dirs {
		if d.Body != nil {
			t.Fatalf("standalone directive %q grabbed a body", d.Dir.Name)
		}
	}
	if dirs[0].Dir.Name != "enter data" || dirs[2].Dir.Name != "exit data" {
		t.Fatalf("names = %q, %q", dirs[0].Dir.Name, dirs[2].Dir.Name)
	}
}

func TestParseBlockDirective(t *testing.T) {
	src := `
int main() {
    int a[10];
#pragma omp target data map(tofrom: a[0:10])
    {
#pragma omp target teams distribute parallel for
        for (int i = 0; i < 10; i++) { a[i] = i; }
    }
    return 0;
}
`
	f := mustParse(t, src, LangC, spec.OpenMP)
	dirs := f.Directives()
	if len(dirs) != 2 {
		t.Fatalf("directives = %d, want 2", len(dirs))
	}
	outer := dirs[0]
	if outer.Dir.Name != "target data" {
		t.Fatalf("outer = %q", outer.Dir.Name)
	}
	if _, ok := outer.Body.(*Block); !ok {
		t.Fatalf("outer body = %T", outer.Body)
	}
	inner := dirs[1]
	if inner.Dir.Name != "target teams distribute parallel for" {
		t.Fatalf("inner = %q", inner.Dir.Name)
	}
}

func TestParseUnknownDirectiveKept(t *testing.T) {
	src := `
int main() {
#pragma acc paralel loop
    for (int i = 0; i < 4; i++) { ; }
    return 0;
}
`
	f, errs := ParseFile(src, LangC, spec.OpenACC)
	if len(errs) != 0 {
		t.Fatalf("unknown directive should parse (compiler rejects it later): %v", errs)
	}
	dirs := f.Directives()
	if len(dirs) != 1 || dirs[0].Dir.Known {
		t.Fatalf("dirs = %+v", dirs)
	}
	if dirs[0].Dir.Name != "paralel" {
		t.Fatalf("unknown directive name = %q", dirs[0].Dir.Name)
	}
}

func TestParseForeignPragmaIgnoredAtStmtLevel(t *testing.T) {
	src := `
int main() {
#pragma unroll 4
    for (int i = 0; i < 4; i++) { ; }
    return 0;
}
`
	f := mustParse(t, src, LangC, spec.OpenACC)
	body := f.Decls[0].(*FuncDecl).Body
	if _, ok := body.Stmts[0].(*UnknownPragmaStmt); !ok {
		t.Fatalf("stmt 0 = %T, want UnknownPragmaStmt", body.Stmts[0])
	}
}

func TestParseRoutinePragmaAttachesToFunction(t *testing.T) {
	src := `
#pragma acc routine seq
int square(int x) { return x * x; }
int main() { return square(2) - 4; }
`
	f := mustParse(t, src, LangC, spec.OpenACC)
	fd := f.Decls[0].(*FuncDecl)
	if len(fd.Pragmas) != 1 || fd.Pragmas[0].Dir.Name != "routine" {
		t.Fatalf("pragmas = %+v", fd.Pragmas)
	}
}

func TestParseCPPBoilerplateTolerated(t *testing.T) {
	src := `
#include <cstdio>
using namespace std;
int main() { printf("ok\n"); return 0; }
`
	f := mustParse(t, src, LangCPP, spec.OpenACC)
	if len(f.Decls) != 1 {
		t.Fatalf("decls = %d", len(f.Decls))
	}
}

func TestParseErrorsCapped(t *testing.T) {
	src := strings.Repeat("@#$ garbage !!! ", 500)
	_, errs := ParseFile(src, LangC, spec.OpenACC)
	if len(errs) == 0 {
		t.Fatal("garbage produced no errors")
	}
	if len(errs) > 2*maxParseErrors+5 {
		t.Fatalf("error cascade not capped: %d errors", len(errs))
	}
}

// TestParseErrorOrder pins the error list's shape: every lexical error
// comes first, in source order, then the syntax errors, and lexical
// errors past the point where the parser gives up are still reported.
func TestParseErrorOrder(t *testing.T) {
	src := "int main() {\n" + strings.Repeat("x = ;\n", 40) + "}\nint y = `z`;\n\"open\n"
	_, errs := ParseFile(src, LangC, spec.OpenACC)
	if len(errs) != 3+maxParseErrors {
		t.Fatalf("got %d errors, want 3 lexical and %d syntax: %v", len(errs), maxParseErrors, errs)
	}
	for i, want := range []string{
		"line 43: unexpected character \"`\"",
		"line 43: unexpected character \"`\"",
		"line 44: unterminated string literal",
		"line 2: syntax error: expected expression, found punctuation \";\"",
	} {
		if got := errs[i].Error(); got != want {
			t.Errorf("error %d = %q, want %q", i, got, want)
		}
	}
	for i, e := range errs {
		if _, lex := e.(*LexError); lex != (i < 3) {
			t.Errorf("error %d (%v): lexical %v, want %v", i, e, lex, i < 3)
		}
	}
}

func TestParseFunctionPrototype(t *testing.T) {
	src := `
int helper(int a, double b);
int main() { return 0; }
int helper(int a, double b) { return a; }
`
	f := mustParse(t, src, LangC, spec.OpenMP)
	if len(f.Decls) != 3 {
		t.Fatalf("decls = %d", len(f.Decls))
	}
	proto := f.Decls[0].(*FuncDecl)
	if proto.Body != nil {
		t.Fatal("prototype has body")
	}
	if len(proto.Params) != 2 || proto.Params[1].Type.Base != "double" {
		t.Fatalf("params = %+v", proto.Params)
	}
}

func TestParseArrayParams(t *testing.T) {
	src := `
void fill(int a[], int n) { for (int i = 0; i < n; i++) a[i] = i; }
int main() { int b[4]; fill(b, 4); return 0; }
`
	f := mustParse(t, src, LangC, spec.OpenMP)
	fd := f.Decls[0].(*FuncDecl)
	if !fd.Params[0].Array {
		t.Fatal("array param not recorded")
	}
}

func TestCountBraceBalance(t *testing.T) {
	cases := []struct {
		src        string
		balance    int
		earlyClose bool
	}{
		{"int main() { return 0; }", 0, false},
		{"int main() { ", 1, false},
		{"}", -1, true},
		{`char *s = "{{{"; int x;`, 0, false},
		{"// }}} \nint main() { }", 0, false},
		{"/* } */ { }", 0, false},
		{"char c = '{';", 0, false},
	}
	for _, c := range cases {
		bal, early := CountBraceBalance(c.src)
		if bal != c.balance || early != c.earlyClose {
			t.Errorf("CountBraceBalance(%q) = (%d,%v), want (%d,%v)", c.src, bal, early, c.balance, c.earlyClose)
		}
	}
}

func TestStripComments(t *testing.T) {
	src := "int x; // trailing\n/* block */int y;\nchar *s = \"// not a comment\";\n"
	out := StripComments(src)
	if strings.Contains(out, "trailing") || strings.Contains(out, "block") {
		t.Fatalf("comments survived: %q", out)
	}
	if !strings.Contains(out, "// not a comment") {
		t.Fatalf("string contents damaged: %q", out)
	}
	if strings.Count(out, "\n") != strings.Count(src, "\n") {
		t.Fatal("line count changed")
	}
}

func TestWalkExprsVisitsEverything(t *testing.T) {
	f := mustParse(t, helloACC, LangC, spec.OpenACC)
	fd := f.Decls[0].(*FuncDecl)
	idents := map[string]bool{}
	WalkExprs(fd.Body, func(e Expr) {
		if id, ok := e.(*IdentExpr); ok {
			idents[id.Name] = true
		}
	})
	for _, want := range []string{"a", "sum", "i"} {
		if !idents[want] {
			t.Errorf("WalkExprs missed identifier %q", want)
		}
	}
}

func TestParseTypeWords(t *testing.T) {
	tests := []struct {
		name string
		decl string
		want string // "" when the words name no type
	}{
		{"int", "int x;", "int"},
		{"short", "short x;", "int"},
		{"short_int", "short int x;", "int"},
		{"unsigned", "unsigned x = 1;", "int"},
		{"unsigned_int", "unsigned int x;", "int"},
		{"signed", "signed x;", "int"},
		{"unsigned_pointer", "unsigned *p;", "int*"},
		{"const_unsigned", "const unsigned x = 1;", "int"},
		{"static_short", "static short x;", "int"},
		{"unsigned_char", "unsigned char c;", "char"},
		{"signed_char", "signed char c;", "char"},
		{"long", "long x;", "long"},
		{"unsigned_long", "unsigned long x;", "long"},
		{"long_int", "long int x;", "long"},
		// C99 has no implicit int; GCC 14 rejects these too.
		{"static_alone", "static x;", ""},
		{"const_alone", "const x = 1;", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, src := range []string{
				tt.decl + "\nint main() { return 0; }\n",
				"int main() { " + tt.decl + " return 0; }\n",
			} {
				f, errs := ParseFile(src, LangC, spec.OpenMP)
				if tt.want == "" {
					if len(errs) == 0 {
						t.Fatalf("%q parsed without errors", src)
					}
					continue
				}
				if len(errs) != 0 {
					t.Fatalf("%q: parse errors: %v", src, errs)
				}
				vd, ok := f.Decls[0].(*VarDecl)
				if !ok {
					vd = f.Decls[0].(*FuncDecl).Body.Stmts[0].(*DeclStmt).Decls[0]
				}
				if got := vd.Type.String(); got != tt.want {
					t.Fatalf("%q: type %s, want %s", src, got, tt.want)
				}
			}
		})
	}
}

// TestCharLiteralValues pins the byte each char literal decodes to, as
// C gives it, and that Render writes a literal that decodes to it again.
func TestCharLiteralValues(t *testing.T) {
	tests := []struct {
		name string
		lit  string
		want byte
	}{
		{"letter", `'a'`, 'a'},
		{"newline", `'\n'`, 10},
		{"tab", `'\t'`, 9},
		{"carriage_return", `'\r'`, 13},
		{"alert", `'\a'`, 7},
		{"backspace", `'\b'`, 8},
		{"form_feed", `'\f'`, 12},
		{"vertical_tab", `'\v'`, 11},
		{"nul", `'\0'`, 0},
		{"backslash", `'\\'`, '\\'},
		{"quote", `'\''`, '\''},
		{"double_quote", `'"'`, '"'},
		{"escaped_double_quote", `'\"'`, '"'},
		{"unknown_escape", `'\q'`, 'q'},
		{"raw_control_byte", "'\x01'", 1},
		{"raw_byte_0x7f", "'\x7f'", 0x7f},
		{"raw_byte_0x80", "'\x80'", 0x80},
		{"raw_byte_0xc3", "'\xc3'", 0xc3},
		{"raw_byte_0xff", "'\xff'", 0xff},
	}
	value := func(t *testing.T, src string) byte {
		t.Helper()
		f := mustParse(t, src, LangC, spec.OpenMP)
		ret := f.Decls[0].(*FuncDecl).Body.Stmts[0].(*ReturnStmt)
		lit, ok := ret.X.(*CharLitExpr)
		if !ok {
			t.Fatalf("return value = %T, want a char literal", ret.X)
		}
		return lit.Value
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := "int main() { return " + tt.lit + "; }\n"
			if got := value(t, src); got != tt.want {
				t.Fatalf("%s = %#x, want %#x", tt.lit, got, tt.want)
			}
			out := Render(mustParse(t, src, LangC, spec.OpenMP))
			if got := value(t, out); got != tt.want {
				t.Fatalf("%s rendered as\n%s\ndecodes to %#x", tt.lit, out, got)
			}
		})
	}
}

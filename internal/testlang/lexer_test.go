package testlang

import (
	"reflect"
	"strconv"
	"testing"
)

// lexAll drains a Lexer over src: every token up to and including EOF,
// plus the lexical errors.
func lexAll(src string) ([]Token, []error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, l.Errors()
		}
	}
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, errs := lexAll(`int main() { return 0; }`)
	if len(errs) != 0 {
		t.Fatalf("unexpected lex errors: %v", errs)
	}
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "int"}, {Ident, "main"}, {Punct, "("}, {Punct, ")"},
		{Punct, "{"}, {Keyword, "return"}, {IntLit, "0"}, {Punct, ";"},
		{Punct, "}"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %v %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"42", IntLit, "42"},
		{"0", IntLit, "0"},
		{"3.14", FloatLit, "3.14"},
		{"1e10", FloatLit, "1e10"},
		{"2.5e-3", FloatLit, "2.5e-3"},
		{"1.0f", FloatLit, "1.0"},
		{"100L", IntLit, "100"},
		{"0x1F", IntLit, "0x1F"},
		{".5", FloatLit, ".5"},
	}
	for _, c := range cases {
		toks, errs := lexAll(c.src)
		if len(errs) != 0 {
			t.Errorf("%q: lex errors %v", c.src, errs)
			continue
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q lexed as %v, want %v %q", c.src, toks[0], c.kind, c.text)
		}
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	toks, errs := lexAll(`printf("a\tb\n");`)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	if toks[2].Kind != StringLit || toks[2].Text != "a\tb\n" {
		t.Fatalf("string literal = %q", toks[2].Text)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	_, errs := lexAll("\"abc\nint x;")
	if len(errs) == 0 {
		t.Fatal("unterminated string produced no error")
	}
}

func TestLexCharLiterals(t *testing.T) {
	toks, errs := lexAll(`'a' '\n'`)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	if toks[0].Kind != CharLit || toks[0].Text != "a" {
		t.Fatalf("char literal 0 = %v", toks[0])
	}
	if toks[1].Kind != CharLit || toks[1].Text != "\n" {
		t.Fatalf("char literal 1 = %v", toks[1])
	}
}

func TestLexComments(t *testing.T) {
	src := `
// a line comment
int /* inline */ x; /* multi
line */ int y;
`
	toks, errs := lexAll(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var idents []string
	for _, tok := range toks {
		if tok.Kind == Ident {
			idents = append(idents, tok.Text)
		}
	}
	if len(idents) != 2 || idents[0] != "x" || idents[1] != "y" {
		t.Fatalf("idents = %v", idents)
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	_, errs := lexAll("int x; /* never closed")
	if len(errs) == 0 {
		t.Fatal("unterminated block comment produced no error")
	}
}

func TestLexPragmaAndInclude(t *testing.T) {
	src := "#include <stdio.h>\n#pragma acc parallel loop\nint x;\n"
	toks, errs := lexAll(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	if toks[0].Kind != Include || toks[0].Text != "<stdio.h>" {
		t.Fatalf("include token = %v", toks[0])
	}
	if toks[1].Kind != Pragma || toks[1].Text != "acc parallel loop" {
		t.Fatalf("pragma token = %v", toks[1])
	}
}

func TestLexPragmaLineContinuation(t *testing.T) {
	src := "#pragma acc parallel loop \\\n    reduction(+:sum)\nint x;\n"
	toks, errs := lexAll(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	if toks[0].Kind != Pragma {
		t.Fatalf("first token = %v", toks[0])
	}
	if want := "acc parallel loop      reduction(+:sum)"; toks[0].Text != want {
		t.Fatalf("pragma text = %q, want %q", toks[0].Text, want)
	}
}

func TestLexDefineSubstitution(t *testing.T) {
	src := "#define N 1024\nint a[N];\n"
	toks, errs := lexAll(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var found bool
	for _, tok := range toks {
		if tok.Kind == IntLit && tok.Text == "1024" {
			found = true
		}
		if tok.Kind == Ident && tok.Text == "N" {
			t.Fatal("macro N not substituted")
		}
	}
	if !found {
		t.Fatal("substituted literal not found")
	}
}

func TestLexDefineMultiTokenBody(t *testing.T) {
	src := "#define SIZE (16 * 4)\nint a[SIZE];\n"
	toks, errs := lexAll(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	joined := ""
	for _, s := range texts {
		joined += s + " "
	}
	if want := "( 16 * 4 )"; !containsSeq(toks, []string{"(", "16", "*", "4", ")"}) {
		t.Fatalf("expanded tokens missing %q in %q", want, joined)
	}
}

func containsSeq(toks []Token, seq []string) bool {
	for i := 0; i+len(seq) <= len(toks); i++ {
		ok := true
		for j, s := range seq {
			if toks[i+j].Text != s {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestLexFunctionLikeMacroRejected(t *testing.T) {
	_, errs := lexAll("#define SQ(x) ((x)*(x))\nint y;\n")
	if len(errs) == 0 {
		t.Fatal("function-like macro accepted")
	}
}

func TestLexMultiCharOperators(t *testing.T) {
	toks, errs := lexAll("a <= b && c++ != --d || e += 1;")
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == Punct {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", "&&", "++", "!=", "--", "||", "+=", ";"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	src := "int x;\nint y;\n\nint z;\n"
	toks, _ := lexAll(src)
	var lines []int
	for _, tok := range toks {
		if tok.Kind == Ident {
			lines = append(lines, tok.Line)
		}
	}
	if len(lines) != 3 || lines[0] != 1 || lines[1] != 2 || lines[2] != 4 {
		t.Fatalf("ident lines = %v, want [1 2 4]", lines)
	}
}

func TestLexIfdefSkipped(t *testing.T) {
	src := "#ifdef FOO\n#endif\nint x;\n"
	toks, errs := lexAll(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	if toks[0].Kind != Keyword || toks[0].Text != "int" {
		t.Fatalf("first token = %v, want int keyword", toks[0])
	}
}

func TestLexUnexpectedCharacter(t *testing.T) {
	_, errs := lexAll("int x = `y`;")
	if len(errs) == 0 {
		t.Fatal("backtick accepted without error")
	}
}

// The parser's cur, peek and next return tokens by value. The Go
// compiler keeps a struct in registers only if it has at most 4 fields
// and at most 32 bytes (ssa.CanSSA in cmd/compile); a larger Token
// goes through memory on every call.
func TestTokenLayoutCompact(t *testing.T) {
	typ := reflect.TypeOf(Token{})
	if n, f := typ.Size(), typ.NumField(); n > 32 || f > 4 {
		t.Fatalf("Token: %d bytes in %d fields, want at most 32 bytes in 4 fields", n, f)
	}
}

// multiOps lists the multi-byte punctuators.
var multiOps = func() (ops []string) {
	for o := opShlAssign; o <= opScope; o++ {
		ops = append(ops, opText[o])
	}
	return ops
}()

// TestLexerTable pins how the lexer splits every operator, punctuator
// and keyword, and identifiers that come close to a keyword. It was
// recorded before the operator and keyword scans were narrowed to the
// entries that could match, and must keep passing unchanged.
func TestLexerTable(t *testing.T) {
	type tok struct {
		kind Kind
		text string
	}
	type row struct {
		src  string
		want []tok
	}
	var rows []row
	for _, op := range multiOps {
		rows = append(rows, row{op, []tok{{Punct, op}}})
	}
	for _, c := range "{}()[];,+-*/%<>=!&|^~?:." {
		rows = append(rows, row{string(c), []tok{{Punct, string(c)}}})
	}
	for _, kw := range []string{"int", "long", "float", "double", "char", "void", "short",
		"unsigned", "signed", "const", "static", "if", "else", "for", "while", "do",
		"return", "break", "continue", "sizeof", "struct", "typedef", "extern", "bool"} {
		rows = append(rows, row{kw, []tok{{Keyword, kw}}})
	}
	for _, id := range []string{"int_", "Int", "i", "doubles", "returnx", "_int", "INT",
		"unsignedx", "continues", "d", "do_", "iff", "x1", "main", "using", "printf", "a_very_long_name"} {
		rows = append(rows, row{id, []tok{{Ident, id}}})
	}
	rows = append(rows,
		row{"<<==", []tok{{Punct, "<<="}, {Punct, "="}}},
		row{">>=>", []tok{{Punct, ">>="}, {Punct, ">"}}},
		row{"x---y", []tok{{Ident, "x"}, {Punct, "--"}, {Punct, "-"}, {Ident, "y"}}},
		row{"-->", []tok{{Punct, "--"}, {Punct, ">"}}},
		row{"a->b", []tok{{Ident, "a"}, {Punct, "->"}, {Ident, "b"}}},
		row{"&&&", []tok{{Punct, "&&"}, {Punct, "&"}}},
		row{"|||=", []tok{{Punct, "||"}, {Punct, "|="}}},
		row{"!==", []tok{{Punct, "!="}, {Punct, "="}}},
		row{"+++", []tok{{Punct, "++"}, {Punct, "+"}}},
		row{"..", []tok{{Punct, "."}, {Punct, "."}}},
		row{"....", []tok{{Punct, "..."}, {Punct, "."}}},
		row{":::", []tok{{Punct, "::"}, {Punct, ":"}}},
		row{"<<<", []tok{{Punct, "<<"}, {Punct, "<"}}},
		row{"*=*", []tok{{Punct, "*="}, {Punct, "*"}}},
		row{"%=%", []tok{{Punct, "%="}, {Punct, "%"}}},
		row{"^=^", []tok{{Punct, "^="}, {Punct, "^"}}},
		row{"=>=", []tok{{Punct, "="}, {Punct, ">="}}},
		row{"a/=b/c", []tok{{Ident, "a"}, {Punct, "/="}, {Ident, "b"}, {Punct, "/"}, {Ident, "c"}}},
		row{"int*p", []tok{{Keyword, "int"}, {Punct, "*"}, {Ident, "p"}}},
		row{"if(x)return;", []tok{{Keyword, "if"}, {Punct, "("}, {Ident, "x"}, {Punct, ")"}, {Keyword, "return"}, {Punct, ";"}}},
		row{".5.x", []tok{{FloatLit, ".5"}, {Punct, "."}, {Ident, "x"}}},
	)
	for _, r := range rows {
		toks, errs := lexAll(r.src)
		if len(errs) != 0 {
			t.Errorf("%q: lex errors %v", r.src, errs)
			continue
		}
		want := append(r.want, tok{EOF, ""})
		if len(toks) != len(want) {
			t.Errorf("%q lexed as %v, want %v", r.src, toks, want)
			continue
		}
		for i, w := range want {
			if toks[i].Kind != w.kind || toks[i].Text != w.text || toks[i].Line != 1 {
				t.Errorf("%q token %d = %v, want %v %q @1", r.src, i, toks[i], w.kind, w.text)
			}
		}
	}
}

// An unexpected byte is reported, and kept as a token, as the rune of
// that value: a byte of 0x80 or more becomes two bytes of UTF-8.
func TestLexUnexpectedByteText(t *testing.T) {
	for src, want := range map[string]string{"@": "@", "$": "$", "`": "`", "\xff": "ÿ", "\xc3": "Ã"} {
		toks, errs := lexAll(src)
		if len(errs) != 1 || errs[0].Error() != "line 1: unexpected character "+strconv.Quote(want) {
			t.Errorf("%q: errors %v, want one for %q", src, errs, want)
		}
		if toks[0].Kind != Punct || toks[0].Text != want {
			t.Errorf("%q: token %v, want punctuation %q", src, toks[0], want)
		}
	}
}

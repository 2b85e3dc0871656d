// Package testlang implements the front ends for the test language the
// reproduction's compiler substrate accepts: a C dialect (covering the
// C and C++ files of the V&V suites) and a free-form Fortran subset.
// It provides lexing, parsing to an AST, structured directive
// (#pragma acc / #pragma omp / !$acc / !$omp) parsing, and source
// rendering used by the corpus generator.
//
// The dialect is deliberately the subset that compiler V&V tests for
// directive-based models actually use: scalar and array arithmetic,
// heap allocation, loops, conditionals, printf-style reporting, and
// directives. Everything the corpus generator can emit parses here,
// and everything that parses here executes on internal/machine.
package testlang

import "fmt"

// Kind classifies a lexical token.
type Kind int

// Token kinds. Operators carry their spelling in Token.Text.
const (
	EOF Kind = iota
	Ident
	Keyword
	IntLit
	FloatLit
	StringLit
	CharLit
	Punct   // operators and punctuation, e.g. "+", "==", "{", ";"
	Pragma  // a whole "#pragma ..." line (raw text, without "#pragma ")
	Include // a whole "#include ..." line
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case IntLit:
		return "integer literal"
	case FloatLit:
		return "float literal"
	case StringLit:
		return "string literal"
	case CharLit:
		return "char literal"
	case Punct:
		return "punctuation"
	case Pragma:
		return "pragma"
	case Include:
		return "include"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Token is one lexical token with its source position (1-based line).
type Token struct {
	Kind Kind
	Text string
	Line int
}

func (t Token) String() string {
	return fmt.Sprintf("%s %q @%d", t.Kind, t.Text, t.Line)
}

// keywords of the C dialect. "unsigned" and "signed" are accepted and
// folded into the base type; "const" and "static" are accepted and
// ignored semantically.
var keywords = map[string]bool{
	"int": true, "long": true, "float": true, "double": true,
	"char": true, "void": true, "short": true,
	"unsigned": true, "signed": true, "const": true, "static": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"return": true, "break": true, "continue": true,
	"sizeof": true, "struct": true, "typedef": true, "extern": true,
	"bool": true, // accepted for C++ sources
}

// IsKeyword reports whether s is a reserved word of the C dialect.
func IsKeyword(s string) bool { return keywords[s] }

// multi-character operators, longest-match-first per leading byte.
var multiOps = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
	"::", // C++ scope operator, tolerated by the lexer
}

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
type Kind uint8

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
// A punctuator or keyword also carries its code, which the parser
// dispatches on instead of comparing spellings.
type Token struct {
	Kind Kind
	op   op
	Text string
	Line int
}

func (t Token) String() string {
	return fmt.Sprintf("%s %q @%d", t.Kind, t.Text, t.Line)
}

// op is the code of a punctuator or keyword; opNone marks every other
// token, and a byte the lexer does not accept.
type op uint8

const (
	opNone op = iota

	// One-byte punctuators.
	opLBrace // {
	opRBrace // }
	opLParen // (
	opRParen // )
	opLBrack // [
	opRBrack // ]
	opSemi   // ;
	opComma  // ,
	opAdd    // +
	opSub    // -
	opMul    // *
	opQuo    // /
	opRem    // %
	opLss    // <
	opGtr    // >
	opAssign // =
	opNot    // !
	opAnd    // &
	opOr     // |
	opXor    // ^
	opTilde  // ~
	opQuest  // ?
	opColon  // :
	opPeriod // .

	// Multi-byte punctuators.
	opShlAssign // <<=
	opShrAssign // >>=
	opEllipsis  // ...
	opEql       // ==
	opNeq       // !=
	opLeq       // <=
	opGeq       // >=
	opLAnd      // &&
	opLOr       // ||
	opInc       // ++
	opDec       // --
	opAddAssign // +=
	opSubAssign // -=
	opMulAssign // *=
	opQuoAssign // /=
	opRemAssign // %=
	opAndAssign // &=
	opOrAssign  // |=
	opXorAssign // ^=
	opShl       // <<
	opShr       // >>
	opArrow     // ->
	opScope     // :: (C++ scope operator, tolerated by the lexer)

	// Keywords. "unsigned" and "signed" are accepted and folded into
	// the base type; "const" and "static" are accepted and ignored
	// semantically. kwInt through kwBool start a type.
	kwInt
	kwLong
	kwFloat
	kwDouble
	kwChar
	kwVoid
	kwShort
	kwUnsigned
	kwSigned
	kwConst
	kwStatic
	kwBool // accepted for C++ sources
	kwIf
	kwElse
	kwFor
	kwWhile
	kwDo
	kwReturn
	kwBreak
	kwContinue
	kwSizeof
	kwStruct
	kwTypedef
	kwExtern

	numOps
)

// opText spells every code.
var opText = [numOps]string{
	opLBrace: "{", opRBrace: "}", opLParen: "(", opRParen: ")",
	opLBrack: "[", opRBrack: "]", opSemi: ";", opComma: ",",
	opAdd: "+", opSub: "-", opMul: "*", opQuo: "/", opRem: "%",
	opLss: "<", opGtr: ">", opAssign: "=", opNot: "!", opAnd: "&",
	opOr: "|", opXor: "^", opTilde: "~", opQuest: "?", opColon: ":",
	opPeriod: ".",

	opShlAssign: "<<=", opShrAssign: ">>=", opEllipsis: "...",
	opEql: "==", opNeq: "!=", opLeq: "<=", opGeq: ">=", opLAnd: "&&",
	opLOr: "||", opInc: "++", opDec: "--", opAddAssign: "+=",
	opSubAssign: "-=", opMulAssign: "*=", opQuoAssign: "/=",
	opRemAssign: "%=", opAndAssign: "&=", opOrAssign: "|=",
	opXorAssign: "^=", opShl: "<<", opShr: ">>", opArrow: "->",
	opScope: "::",

	kwInt: "int", kwLong: "long", kwFloat: "float", kwDouble: "double",
	kwChar: "char", kwVoid: "void", kwShort: "short",
	kwUnsigned: "unsigned", kwSigned: "signed", kwConst: "const",
	kwStatic: "static", kwBool: "bool", kwIf: "if", kwElse: "else",
	kwFor: "for", kwWhile: "while", kwDo: "do", kwReturn: "return",
	kwBreak: "break", kwContinue: "continue", kwSizeof: "sizeof",
	kwStruct: "struct", kwTypedef: "typedef", kwExtern: "extern",
}

// binPrec is each binary operator's precedence, higher binding
// tighter; 0 marks a code that is no binary operator. The parser and
// the renderer both read it.
var binPrec = [numOps]uint8{
	opLOr:  1,
	opLAnd: 2,
	opOr:   3,
	opXor:  4,
	opAnd:  5,
	opEql:  6, opNeq: 6,
	opLss: 7, opGtr: 7, opLeq: 7, opGeq: 7,
	opShl: 8, opShr: 8,
	opAdd: 9, opSub: 9,
	opMul: 10, opQuo: 10, opRem: 10,
}

// punctCode returns the code of a punctuator's spelling, or opNone.
func punctCode(s string) op {
	for o := opLBrace; o <= opScope; o++ {
		if opText[o] == s {
			return o
		}
	}
	return opNone
}

// keywordCode returns the code of a keyword of the C dialect, or opNone
// for any other word.
func keywordCode(s string) op {
	switch s {
	case "int":
		return kwInt
	case "long":
		return kwLong
	case "float":
		return kwFloat
	case "double":
		return kwDouble
	case "char":
		return kwChar
	case "void":
		return kwVoid
	case "short":
		return kwShort
	case "unsigned":
		return kwUnsigned
	case "signed":
		return kwSigned
	case "const":
		return kwConst
	case "static":
		return kwStatic
	case "bool":
		return kwBool
	case "if":
		return kwIf
	case "else":
		return kwElse
	case "for":
		return kwFor
	case "while":
		return kwWhile
	case "do":
		return kwDo
	case "return":
		return kwReturn
	case "break":
		return kwBreak
	case "continue":
		return kwContinue
	case "sizeof":
		return kwSizeof
	case "struct":
		return kwStruct
	case "typedef":
		return kwTypedef
	case "extern":
		return kwExtern
	}
	return opNone
}

package testlang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// ParseError is a syntax error with its source line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("line %d: syntax error: %s", e.Line, e.Msg) }

// maxParseErrors bounds error cascades from heavily corrupted files
// (negative probing can mangle sources arbitrarily).
const maxParseErrors = 25

// Parser parses C-dialect source into a *File. It never rewinds, so
// it holds a window of two tokens, the current one and the one after
// it, and pulls the rest from its Lexer as it advances.
type Parser struct {
	lex        *Lexer
	tok, ahead Token // cur and peek
	// n counts the tokens consumed, so parseBlock can tell whether a
	// statement made progress.
	n       int
	errs    []error
	dialect spec.Dialect
	lang    Language
	bailed  bool
}

func newParser(src string, lang Language, dialect spec.Dialect) *Parser {
	p := &Parser{lex: NewLexer(src), dialect: dialect, lang: lang}
	p.tok = p.lex.Next()
	p.ahead = p.lex.Next()
	return p
}

// ParseFile lexes and parses C-dialect source. The returned file is
// best-effort when errors are present; callers must treat a non-empty
// error slice as a failed compile.
func ParseFile(src string, lang Language, dialect spec.Dialect) (*File, []error) {
	p := newParser(src, lang, dialect)
	f := p.parseFile()
	return f, p.finish()
}

// finish lexes the rest of the source, past where the parser stopped,
// and returns every lexical error ahead of the syntax errors.
func (p *Parser) finish() []error {
	for t := p.ahead; t.Kind != EOF; t = p.lex.Next() {
	}
	return append(p.lex.Errors(), p.errs...)
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) peek() Token { return p.ahead }

// next consumes the current token and returns it; at EOF it stays.
func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != EOF {
		p.tok = p.ahead
		p.ahead = p.lex.Next()
		p.n++
	}
	return t
}

func (p *Parser) at(kind Kind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) atPunct(text string) bool { return p.at(Punct, text) }

func (p *Parser) accept(kind Kind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) errorf(line int, format string, args ...any) {
	if len(p.errs) >= maxParseErrors {
		p.bailed = true
		return
	}
	p.errs = append(p.errs, &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (p *Parser) expectPunct(text string) bool {
	if p.accept(Punct, text) {
		return true
	}
	t := p.cur()
	p.errorf(t.Line, "expected %q, found %s %q", text, t.Kind, t.Text)
	return false
}

// sync skips tokens until after the next semicolon or to a closing
// brace, to resume after a statement-level error.
func (p *Parser) sync() {
	depth := 0
	for p.cur().Kind != EOF {
		t := p.cur()
		if t.Kind == Punct {
			switch t.Text {
			case ";":
				if depth == 0 {
					p.next()
					return
				}
			case "{":
				depth++
			case "}":
				if depth == 0 {
					return
				}
				depth--
			}
		}
		p.next()
	}
}

func (p *Parser) parseFile() *File {
	f := &File{Lang: p.lang, position: 1}
	var pendingPragmas []*DirectiveStmt
	for p.cur().Kind != EOF && !p.bailed {
		t := p.cur()
		switch {
		case t.Kind == Include:
			f.Includes = append(f.Includes, t.Text)
			p.next()
		case t.Kind == Pragma:
			p.next()
			if dir, ok := ParseDirective(t.Text, p.dialect, t.Line); ok {
				pendingPragmas = append(pendingPragmas, &DirectiveStmt{Dir: dir, position: position(t.Line)})
			}
			// Non-directive pragmas at file scope (e.g. "#pragma once")
			// are ignored, as real compilers do.
		case t.Kind == Keyword && (t.Text == "using" || t.Text == "extern" || t.Text == "typedef"):
			// Tolerated C++/C boilerplate: skip the whole statement.
			p.skipToSemicolon()
		case t.Kind == Ident && t.Text == "using":
			p.skipToSemicolon()
		case isTypeStart(t):
			decl := p.parseTopDecl(pendingPragmas)
			pendingPragmas = nil
			if decl != nil {
				f.Decls = append(f.Decls, decl...)
			}
		default:
			p.errorf(t.Line, "unexpected %s %q at file scope", t.Kind, t.Text)
			p.next()
			p.sync()
		}
	}
	return f
}

func (p *Parser) skipToSemicolon() {
	for p.cur().Kind != EOF && !p.atPunct(";") {
		p.next()
	}
	p.accept(Punct, ";")
}

func isTypeStart(t Token) bool {
	if t.Kind != Keyword {
		return false
	}
	switch t.Text {
	case "int", "long", "float", "double", "char", "void", "short",
		"unsigned", "signed", "const", "static", "bool":
		return true
	}
	return false
}

// parseType parses a type specifier: qualifiers, base, pointer stars.
// isConst reports whether a const qualifier was seen.
func (p *Parser) parseType() (typ Type, isConst bool, ok bool) {
	seenBase := ""
	long := 0
	for {
		t := p.cur()
		if t.Kind != Keyword {
			break
		}
		switch t.Text {
		case "const":
			isConst = true
		case "static", "unsigned", "signed", "short":
			// Folded away: the dialect models int/long/float/double.
		case "long":
			long++
		case "int", "float", "double", "char", "void", "bool":
			if seenBase != "" {
				p.errorf(t.Line, "multiple base types in declaration")
			}
			seenBase = t.Text
		default:
			goto done
		}
		p.next()
	}
done:
	if seenBase == "" {
		if long > 0 {
			seenBase = "long"
		} else {
			return Type{}, isConst, false
		}
	}
	if seenBase == "int" && long > 0 {
		seenBase = "long"
	}
	typ = Type{Base: seenBase}
	for p.atPunct("*") {
		p.next()
		typ.Ptr++
	}
	return typ, isConst, true
}

// parseTopDecl parses a function definition or a variable declaration
// list at file scope.
func (p *Parser) parseTopDecl(pragmas []*DirectiveStmt) []Decl {
	startLine := p.cur().Line
	typ, isConst, ok := p.parseType()
	if !ok {
		p.errorf(startLine, "expected type")
		p.sync()
		return nil
	}
	nameTok := p.cur()
	if nameTok.Kind != Ident {
		p.errorf(nameTok.Line, "expected identifier after type, found %q", nameTok.Text)
		p.sync()
		return nil
	}
	p.next()
	if p.atPunct("(") {
		fd := p.parseFuncRest(typ, nameTok, pragmas)
		if fd == nil {
			return nil
		}
		return []Decl{fd}
	}
	decls := p.parseVarDeclRest(typ, isConst, nameTok)
	out := make([]Decl, len(decls))
	for i, d := range decls {
		out[i] = d
	}
	return out
}

func (p *Parser) parseFuncRest(ret Type, nameTok Token, pragmas []*DirectiveStmt) *FuncDecl {
	fd := &FuncDecl{Name: nameTok.Text, Ret: ret, Pragmas: pragmas, position: position(nameTok.Line)}
	p.expectPunct("(")
	if !p.atPunct(")") {
		for {
			t := p.cur()
			if t.Kind == Keyword && t.Text == "void" && p.peek().Kind == Punct && p.peek().Text == ")" {
				p.next()
				break
			}
			ptyp, _, ok := p.parseType()
			if !ok {
				p.errorf(t.Line, "expected parameter type")
				break
			}
			param := Param{Type: ptyp}
			if p.cur().Kind == Ident {
				param.Name = p.next().Text
			}
			for p.atPunct("[") {
				p.next()
				// Dimension expressions on params are parsed and dropped.
				if !p.atPunct("]") {
					p.parseExpr()
				}
				p.expectPunct("]")
				param.Array = true
			}
			fd.Params = append(fd.Params, param)
			if !p.accept(Punct, ",") {
				break
			}
		}
	}
	p.expectPunct(")")
	if p.accept(Punct, ";") {
		// Prototype: keep the declaration, no body.
		return fd
	}
	if !p.atPunct("{") {
		t := p.cur()
		p.errorf(t.Line, "expected function body, found %q", t.Text)
		p.sync()
		return fd
	}
	fd.Body = p.parseBlock()
	return fd
}

// parseVarDeclRest parses "name [dims] [= init] (, declarator)* ;"
// after the first identifier has been consumed.
func (p *Parser) parseVarDeclRest(typ Type, isConst bool, first Token) []*VarDecl {
	var decls []*VarDecl
	cur := first
	curType := typ
	for {
		vd := &VarDecl{Name: cur.Text, Type: curType, Const: isConst, position: position(cur.Line)}
		for p.atPunct("[") {
			p.next()
			if p.atPunct("]") {
				vd.ArrayDims = append(vd.ArrayDims, nil)
			} else {
				vd.ArrayDims = append(vd.ArrayDims, p.parseExpr())
			}
			p.expectPunct("]")
		}
		if p.accept(Punct, "=") {
			if p.atPunct("{") {
				vd.Init = p.parseInitList()
			} else {
				vd.Init = p.parseAssign()
			}
		}
		decls = append(decls, vd)
		if !p.accept(Punct, ",") {
			break
		}
		// Subsequent declarators may add their own pointer stars.
		curType = Type{Base: typ.Base}
		for p.atPunct("*") {
			p.next()
			curType.Ptr++
		}
		nt := p.cur()
		if nt.Kind != Ident {
			p.errorf(nt.Line, "expected declarator after ','")
			break
		}
		p.next()
		cur = nt
	}
	p.expectPunct(";")
	return decls
}

func (p *Parser) parseInitList() *InitList {
	il := &InitList{position: position(p.cur().Line)}
	p.expectPunct("{")
	if !p.atPunct("}") {
		for {
			if p.atPunct("{") {
				il.Elems = append(il.Elems, p.parseInitList())
			} else {
				il.Elems = append(il.Elems, p.parseAssign())
			}
			if !p.accept(Punct, ",") {
				break
			}
		}
	}
	p.expectPunct("}")
	return il
}

func (p *Parser) parseBlock() *Block {
	b := &Block{position: position(p.cur().Line)}
	p.expectPunct("{")
	for !p.atPunct("}") && p.cur().Kind != EOF && !p.bailed {
		before := p.n
		st := p.parseStmt()
		if st != nil {
			b.Stmts = append(b.Stmts, st)
		}
		if p.n == before {
			// No progress: consume one token to guarantee termination.
			p.errorf(p.cur().Line, "unexpected token %q", p.cur().Text)
			p.next()
		}
	}
	b.EndLine = p.cur().Line
	if !p.accept(Punct, "}") {
		p.errorf(p.cur().Line, "expected '}' to close block opened at line %d", b.Pos())
	}
	return b
}

func (p *Parser) parseStmt() Stmt {
	t := p.cur()
	switch {
	case t.Kind == Pragma:
		p.next()
		return p.parsePragmaStmt(t)
	case t.Kind == Punct && t.Text == "{":
		return p.parseBlock()
	case t.Kind == Punct && t.Text == ";":
		p.next()
		return &EmptyStmt{position: position(t.Line)}
	case isTypeStart(t):
		return p.parseDeclStmt()
	case t.Kind == Keyword && t.Text != "sizeof": // sizeof starts an expression
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "return":
			p.next()
			rs := &ReturnStmt{position: position(t.Line)}
			if !p.atPunct(";") {
				rs.X = p.parseExpr()
			}
			p.expectPunct(";")
			return rs
		case "break":
			p.next()
			p.expectPunct(";")
			return &BreakStmt{position: position(t.Line)}
		case "continue":
			p.next()
			p.expectPunct(";")
			return &ContinueStmt{position: position(t.Line)}
		default:
			p.errorf(t.Line, "unsupported keyword %q in statement position", t.Text)
			p.next()
			p.sync()
			return nil
		}
	default:
		x := p.parseExpr()
		p.expectPunct(";")
		if x == nil {
			return nil
		}
		return &ExprStmt{X: x, position: position(t.Line)}
	}
}

// parsePragmaStmt handles a pragma token in statement position,
// attaching the following construct according to the directive's
// association.
func (p *Parser) parsePragmaStmt(t Token) Stmt {
	dir, ok := ParseDirective(t.Text, p.dialect, t.Line)
	if !ok {
		return &UnknownPragmaStmt{Raw: t.Text, position: position(t.Line)}
	}
	ds := &DirectiveStmt{Dir: dir, position: position(t.Line)}
	assoc := spec.AssocNone
	if dir.Known {
		if sd, found := spec.ForDialect(p.dialect).Lookup(dir.Name); found {
			if sd.Standalone {
				return ds
			}
			assoc = sd.Association
		}
	} else {
		// Unknown directive: attach a following construct only if one
		// plausibly belongs to it (a brace block or loop), mirroring how
		// real compilers recover; otherwise treat as standalone. The
		// compiler rejects the directive either way.
		if p.atPunct("{") || p.at(Keyword, "for") {
			ds.Body = p.parseStmt()
		}
		return ds
	}
	switch assoc {
	case spec.AssocNone:
		return ds
	default:
		if p.atPunct("}") || p.cur().Kind == EOF {
			p.errorf(t.Line, "directive %q requires a following statement", dir.Name)
			return ds
		}
		ds.Body = p.parseStmt()
		return ds
	}
}

func (p *Parser) parseDeclStmt() Stmt {
	startLine := p.cur().Line
	typ, isConst, ok := p.parseType()
	if !ok {
		p.errorf(startLine, "expected type in declaration")
		p.sync()
		return nil
	}
	nameTok := p.cur()
	if nameTok.Kind != Ident {
		p.errorf(nameTok.Line, "expected identifier in declaration, found %q", nameTok.Text)
		p.sync()
		return nil
	}
	p.next()
	decls := p.parseVarDeclRest(typ, isConst, nameTok)
	return &DeclStmt{Decls: decls, position: position(startLine)}
}

func (p *Parser) parseIf() Stmt {
	t := p.next() // 'if'
	is := &IfStmt{position: position(t.Line)}
	p.expectPunct("(")
	is.Cond = p.parseExpr()
	p.expectPunct(")")
	is.Then = p.parseStmt()
	if p.at(Keyword, "else") {
		p.next()
		is.Else = p.parseStmt()
	}
	return is
}

func (p *Parser) parseFor() Stmt {
	t := p.next() // 'for'
	fs := &ForStmt{position: position(t.Line)}
	p.expectPunct("(")
	if !p.atPunct(";") {
		if isTypeStart(p.cur()) {
			startLine := p.cur().Line
			typ, isConst, _ := p.parseType()
			nameTok := p.cur()
			if nameTok.Kind == Ident {
				p.next()
				vd := &VarDecl{Name: nameTok.Text, Type: typ, Const: isConst, position: position(nameTok.Line)}
				if p.accept(Punct, "=") {
					vd.Init = p.parseAssign()
				}
				fs.Init = &DeclStmt{Decls: []*VarDecl{vd}, position: position(startLine)}
				p.expectPunct(";")
			} else {
				p.errorf(nameTok.Line, "expected loop variable name")
				p.sync()
			}
		} else {
			x := p.parseExpr()
			fs.Init = &ExprStmt{X: x, position: position(t.Line)}
			p.expectPunct(";")
		}
	} else {
		p.next()
	}
	if !p.atPunct(";") {
		fs.Cond = p.parseExpr()
	}
	p.expectPunct(";")
	if !p.atPunct(")") {
		fs.Post = p.parseExpr()
	}
	p.expectPunct(")")
	fs.Body = p.parseStmt()
	return fs
}

func (p *Parser) parseWhile() Stmt {
	t := p.next() // 'while'
	ws := &WhileStmt{position: position(t.Line)}
	p.expectPunct("(")
	ws.Cond = p.parseExpr()
	p.expectPunct(")")
	ws.Body = p.parseStmt()
	return ws
}

// Expression parsing: precedence climbing.

func (p *Parser) parseExpr() Expr { return p.parseAssign() }

func (p *Parser) parseAssign() Expr {
	lhs := p.parseTernary()
	t := p.cur()
	if t.Kind == Punct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=":
			p.next()
			rhs := p.parseAssign()
			return &AssignExpr{Op: t.Text, L: lhs, R: rhs, position: position(t.Line)}
		}
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	cond := p.parseBinary(0)
	if p.atPunct("?") {
		t := p.next()
		then := p.parseExpr()
		p.expectPunct(":")
		els := p.parseTernary()
		return &CondExpr{Cond: cond, Then: then, Else: els, position: position(t.Line)}
	}
	return cond
}

// binary operator precedence, higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != Punct {
			return lhs
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &BinaryExpr{Op: t.Text, L: lhs, R: rhs, position: position(t.Line)}
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.cur()
	if t.Kind == Punct {
		switch t.Text {
		case "!", "-", "+", "*", "&", "~":
			p.next()
			x := p.parseUnary()
			if t.Text == "+" {
				return x
			}
			return &UnaryExpr{Op: t.Text, X: x, position: position(t.Line)}
		case "++", "--":
			p.next()
			x := p.parseUnary()
			return &UnaryExpr{Op: t.Text, X: x, position: position(t.Line)}
		case "(":
			// Cast or parenthesised expression.
			if isTypeStart(p.peek()) {
				p.next()
				typ, _, ok := p.parseType()
				if !ok {
					p.errorf(t.Line, "bad cast type")
				}
				p.expectPunct(")")
				x := p.parseUnary()
				return &CastExpr{To: typ, X: x, position: position(t.Line)}
			}
		}
	}
	if t.Kind == Keyword && t.Text == "sizeof" {
		p.next()
		p.expectPunct("(")
		if isTypeStart(p.cur()) {
			typ, _, _ := p.parseType()
			p.expectPunct(")")
			return &SizeofExpr{Of: typ, position: position(t.Line)}
		}
		// sizeof(expr): evaluate to the size of the expression's type;
		// modelled as sizeof its type after checking, but the corpus
		// only uses sizeof(type). Parse the expression, wrap as sizeof
		// of a long for tolerance.
		x := p.parseExpr()
		p.expectPunct(")")
		_ = x
		return &SizeofExpr{Of: Type{Base: "long"}, position: position(t.Line)}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		t := p.cur()
		if t.Kind != Punct {
			return x
		}
		switch t.Text {
		case "[":
			p.next()
			idx := p.parseExpr()
			p.expectPunct("]")
			x = &IndexExpr{X: x, Index: idx, position: position(t.Line)}
		case "++", "--":
			p.next()
			x = &PostfixExpr{Op: t.Text, X: x, position: position(t.Line)}
		case ".", "->":
			p.errorf(t.Line, "member access is not supported by the test dialect")
			p.next()
			if p.cur().Kind == Ident {
				p.next()
			}
			return x
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case Ident:
		p.next()
		if p.atPunct("(") {
			return p.parseCall(t)
		}
		return &IdentExpr{Name: t.Text, position: position(t.Line)}
	case IntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 0, 64)
		if err != nil {
			p.errorf(t.Line, "bad integer literal %q", t.Text)
		}
		return &IntLitExpr{Value: v, position: position(t.Line)}
	case FloatLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errorf(t.Line, "bad float literal %q", t.Text)
		}
		return &FloatLitExpr{Value: v, Text: t.Text, position: position(t.Line)}
	case StringLit:
		p.next()
		return &StringLitExpr{Value: t.Text, position: position(t.Line)}
	case CharLit:
		p.next()
		var b byte
		if len(t.Text) > 0 {
			b = t.Text[0]
		}
		return &CharLitExpr{Value: b, position: position(t.Line)}
	case Punct:
		if t.Text == "(" {
			p.next()
			x := p.parseExpr()
			p.expectPunct(")")
			return x
		}
	}
	p.errorf(t.Line, "expected expression, found %s %q", t.Kind, t.Text)
	p.next()
	return &IntLitExpr{Value: 0, position: position(t.Line)}
}

func (p *Parser) parseCall(nameTok Token) Expr {
	call := &CallExpr{Fun: nameTok.Text, position: position(nameTok.Line)}
	p.expectPunct("(")
	if !p.atPunct(")") {
		for {
			call.Args = append(call.Args, p.parseAssign())
			if !p.accept(Punct, ",") {
				break
			}
		}
	}
	p.expectPunct(")")
	return call
}

// CountBraceBalance scans raw source text and reports the difference
// between opening and closing braces outside strings/comments, plus
// whether any closing brace appeared before its opener. This textual
// check backs both the compiler's fast-path diagnostics and the
// judge's structural feature extraction.
func CountBraceBalance(src string) (balance int, earlyClose bool) {
	inLine, inBlock, inStr, inChar := false, false, false, false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inLine:
			if c == '\n' {
				inLine = false
			}
		case inBlock:
			if c == '*' && i+1 < len(src) && src[i+1] == '/' {
				inBlock = false
				i++
			}
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
		default:
			switch c {
			case '/':
				if i+1 < len(src) {
					if src[i+1] == '/' {
						inLine = true
					} else if src[i+1] == '*' {
						inBlock = true
					}
				}
			case '"':
				inStr = true
			case '\'':
				inChar = true
			case '{':
				balance++
			case '}':
				balance--
				if balance < 0 {
					earlyClose = true
				}
			}
		}
	}
	return balance, earlyClose
}

// StripComments removes // and /* */ comments from source, preserving
// newlines so line numbers stay stable. Used by textual mutators.
func StripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	inLine, inBlock, inStr := false, false, false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inLine:
			if c == '\n' {
				inLine = false
				b.WriteByte(c)
			}
		case inBlock:
			if c == '\n' {
				b.WriteByte(c)
			}
			if c == '*' && i+1 < len(src) && src[i+1] == '/' {
				inBlock = false
				i++
			}
		case inStr:
			b.WriteByte(c)
			if c == '\\' && i+1 < len(src) {
				b.WriteByte(src[i+1])
				i++
			} else if c == '"' {
				inStr = false
			}
		default:
			if c == '/' && i+1 < len(src) && src[i+1] == '/' {
				inLine = true
				i++
				continue
			}
			if c == '/' && i+1 < len(src) && src[i+1] == '*' {
				inBlock = true
				i++
				continue
			}
			if c == '"' {
				inStr = true
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

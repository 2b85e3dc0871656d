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
// it holds only the current token and pulls the rest from its Lexer as
// it advances; where it must look one further, the Lexer keeps that
// token for it. It dispatches on token codes, not spellings.
//
// A Parser lives for one parse and keeps nothing across files. It
// takes the frequent nodes and every list from its slabs, and builds
// each list in a small array on the frame of the function parsing it
// before copying it out at exact length.
type Parser struct {
	lex Lexer
	tok Token // the current token
	// n counts the tokens consumed, so parseBlock can tell whether a
	// statement made progress.
	n       int
	errs    []error
	dialect spec.Dialect
	lang    Language
	bailed  bool

	nodes
}

func (p *Parser) init(src string, lang Language, dialect spec.Dialect) {
	p.lex = Lexer{src: src, line: 1}
	p.dialect, p.lang = dialect, lang
	p.tok = p.lex.Next()
}

// ParseFile lexes and parses C-dialect source. The returned file is
// best-effort when errors are present; callers must treat a non-empty
// error slice as a failed compile.
func ParseFile(src string, lang Language, dialect spec.Dialect) (*File, []error) {
	var p Parser
	p.init(src, lang, dialect)
	p.size(len(src))
	f := p.parseFile()
	return f, p.finish()
}

// finish lexes the rest of the source, past where the parser stopped,
// and returns every lexical error ahead of the syntax errors.
func (p *Parser) finish() []error {
	for t := p.tok; t.Kind != EOF; t = p.lex.Next() {
	}
	return append(p.lex.Errors(), p.errs...)
}

// next consumes the current token; at EOF it stays.
func (p *Parser) next() {
	if p.tok.Kind != EOF {
		p.tok = p.lex.Next()
		p.n++
	}
}

// peek returns the token after the current one, leaving it for the
// lexer to return next.
func (p *Parser) peek() Token {
	if !p.lex.peeked {
		p.lex.ahead, p.lex.peeked = p.lex.scan(), true
	}
	return p.lex.ahead
}

// take consumes the current token and returns it.
func (p *Parser) take() Token {
	t := p.tok
	p.next()
	return t
}

func (p *Parser) at(o op) bool { return p.tok.op == o }

func (p *Parser) accept(o op) bool {
	if p.tok.op == o {
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

func (p *Parser) expect(o op) bool {
	if p.accept(o) {
		return true
	}
	t := p.tok
	p.errorf(t.Line, "expected %q, found %s %q", opText[o], t.Kind, t.Text)
	return false
}

// sync skips tokens until after the next semicolon or to a closing
// brace, to resume after a statement-level error.
func (p *Parser) sync() {
	depth := 0
	for p.tok.Kind != EOF {
		switch p.tok.op {
		case opSemi:
			if depth == 0 {
				p.next()
				return
			}
		case opLBrace:
			depth++
		case opRBrace:
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

func (p *Parser) parseFile() *File {
	f := &File{Lang: p.lang, position: 1}
	var pendingPragmas []*DirectiveStmt
	var buf [16]Decl
	decls := buf[:0]
	for p.tok.Kind != EOF && !p.bailed {
		t := p.tok
		switch {
		case t.Kind == Include:
			f.Includes = append(f.Includes, t.Text)
			p.next()
		case t.Kind == Pragma:
			p.next()
			if dir, _, ok := parseDirective(t.Text, p.dialect, t.Line, &p.directives, &p.clauses); ok {
				pendingPragmas = append(pendingPragmas, &DirectiveStmt{Dir: dir, position: position(t.Line)})
			}
			// Non-directive pragmas at file scope (e.g. "#pragma once")
			// are ignored, as real compilers do.
		case t.op == kwExtern || t.op == kwTypedef || (t.Kind == Ident && t.Text == "using"):
			// Tolerated C++/C boilerplate: skip the whole statement.
			p.skipToSemicolon()
		case isTypeStart(t):
			decls = p.parseTopDecl(pendingPragmas, decls)
			pendingPragmas = nil
		default:
			p.errorf(t.Line, "unexpected %s %q at file scope", t.Kind, t.Text)
			p.next()
			p.sync()
		}
	}
	if len(decls) > 0 {
		f.Decls = append([]Decl(nil), decls...)
	}
	return f
}

func (p *Parser) skipToSemicolon() {
	for p.tok.Kind != EOF && !p.at(opSemi) {
		p.next()
	}
	p.accept(opSemi)
}

func isTypeStart(t Token) bool { return t.op >= kwInt && t.op <= kwBool }

// parseType parses a type specifier: qualifiers, base, pointer stars.
// isConst reports whether a const qualifier was seen.
func (p *Parser) parseType() (typ Type, isConst bool, ok bool) {
	base := opNone
	long := 0
	intWord := false
loop:
	for {
		t := p.tok
		switch t.op {
		case kwConst:
			isConst = true
		case kwStatic:
			// A storage class, no part of the type.
		case kwUnsigned, kwSigned, kwShort:
			// Folded away: the dialect models int/long/float/double.
			// With no base type they name int, as in C.
			intWord = true
		case kwLong:
			long++
		case kwInt, kwFloat, kwDouble, kwChar, kwVoid, kwBool:
			if base != opNone {
				p.errorf(t.Line, "multiple base types in declaration")
			}
			base = t.op
		default:
			break loop
		}
		p.next()
	}
	switch {
	case base == opNone && long == 0 && !intWord:
		return Type{}, isConst, false
	case base == opNone && long == 0:
		base = kwInt
	case base == opNone, base == kwInt && long > 0:
		base = kwLong
	}
	typ = Type{Base: opText[base]}
	for p.at(opMul) {
		p.next()
		typ.Ptr++
	}
	return typ, isConst, true
}

// parseTopDecl parses a function definition or a variable declaration
// list at file scope and appends it to decls.
func (p *Parser) parseTopDecl(pragmas []*DirectiveStmt, decls []Decl) []Decl {
	startLine := p.tok.Line
	typ, isConst, ok := p.parseType()
	if !ok {
		p.errorf(startLine, "expected type")
		p.sync()
		return decls
	}
	nameTok := p.tok
	if nameTok.Kind != Ident {
		p.errorf(nameTok.Line, "expected identifier after type, found %q", nameTok.Text)
		p.sync()
		return decls
	}
	p.next()
	if p.at(opLParen) {
		return append(decls, p.parseFuncRest(typ, nameTok, pragmas))
	}
	for _, d := range p.parseVarDeclRest(typ, isConst, nameTok) {
		decls = append(decls, d)
	}
	return decls
}

func (p *Parser) parseFuncRest(ret Type, nameTok Token, pragmas []*DirectiveStmt) *FuncDecl {
	fd := &FuncDecl{Name: nameTok.Text, Ret: ret, Pragmas: pragmas, position: position(nameTok.Line)}
	p.expect(opLParen)
	if !p.at(opRParen) {
		for {
			t := p.tok
			if t.op == kwVoid && p.peek().op == opRParen {
				p.next()
				break
			}
			ptyp, _, ok := p.parseType()
			if !ok {
				p.errorf(t.Line, "expected parameter type")
				break
			}
			param := Param{Type: ptyp}
			if p.tok.Kind == Ident {
				param.Name = p.take().Text
			}
			for p.at(opLBrack) {
				p.next()
				// Dimension expressions on params are parsed and dropped.
				if !p.at(opRBrack) {
					p.parseExpr()
				}
				p.expect(opRBrack)
				param.Array = true
			}
			fd.Params = append(fd.Params, param)
			if !p.accept(opComma) {
				break
			}
		}
	}
	p.expect(opRParen)
	if p.accept(opSemi) {
		// Prototype: keep the declaration, no body.
		return fd
	}
	if !p.at(opLBrace) {
		t := p.tok
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
	var buf [4]*VarDecl
	decls := buf[:0]
	cur := first
	curType := typ
	for {
		vd := p.varDecls.new()
		*vd = VarDecl{Name: cur.Text, Type: curType, Const: isConst, position: position(cur.Line)}
		var dimBuf [4]Expr
		dims := dimBuf[:0]
		for p.at(opLBrack) {
			p.next()
			var dim Expr
			if !p.at(opRBrack) {
				dim = p.parseExpr()
			}
			dims = append(dims, dim)
			p.expect(opRBrack)
		}
		vd.ArrayDims = p.exprLists.clone(dims)
		if p.accept(opAssign) {
			if p.at(opLBrace) {
				vd.Init = p.parseInitList()
			} else {
				vd.Init = p.parseAssign()
			}
		}
		decls = append(decls, vd)
		if !p.accept(opComma) {
			break
		}
		// Subsequent declarators may add their own pointer stars.
		curType = Type{Base: typ.Base}
		for p.at(opMul) {
			p.next()
			curType.Ptr++
		}
		nt := p.tok
		if nt.Kind != Ident {
			p.errorf(nt.Line, "expected declarator after ','")
			break
		}
		p.next()
		cur = nt
	}
	p.expect(opSemi)
	return p.declLists.clone(decls)
}

func (p *Parser) parseInitList() *InitList {
	il := &InitList{position: position(p.tok.Line)}
	p.expect(opLBrace)
	var buf [8]Expr
	elems := buf[:0]
	if !p.at(opRBrace) {
		for {
			var el Expr
			if p.at(opLBrace) {
				el = p.parseInitList()
			} else {
				el = p.parseAssign()
			}
			elems = append(elems, el)
			if !p.accept(opComma) {
				break
			}
		}
	}
	il.Elems = p.exprLists.clone(elems)
	p.expect(opRBrace)
	return il
}

func (p *Parser) parseBlock() *Block {
	b := p.blocks.new()
	b.position = position(p.tok.Line)
	p.expect(opLBrace)
	var buf [16]Stmt
	stmts := buf[:0]
	for !p.at(opRBrace) && p.tok.Kind != EOF && !p.bailed {
		before := p.n
		if st := p.parseStmt(); st != nil {
			stmts = append(stmts, st)
		}
		if p.n == before {
			// No progress: consume one token to guarantee termination.
			p.errorf(p.tok.Line, "unexpected token %q", p.tok.Text)
			p.next()
		}
	}
	b.Stmts = p.stmtLists.clone(stmts)
	b.EndLine = p.tok.Line
	if !p.accept(opRBrace) {
		p.errorf(p.tok.Line, "expected '}' to close block opened at line %d", b.Pos())
	}
	return b
}

func (p *Parser) parseStmt() Stmt {
	t := p.tok
	switch {
	case t.Kind == Pragma:
		p.next()
		return p.parsePragmaStmt(t)
	case t.op == opLBrace:
		return p.parseBlock()
	case t.op == opSemi:
		p.next()
		return &EmptyStmt{position: position(t.Line)}
	case isTypeStart(t):
		return p.parseDeclStmt()
	case t.Kind == Keyword && t.op != kwSizeof: // sizeof starts an expression
		switch t.op {
		case kwIf:
			return p.parseIf()
		case kwFor:
			return p.parseFor()
		case kwWhile:
			return p.parseWhile()
		case kwReturn:
			p.next()
			rs := p.returns.new()
			rs.position = position(t.Line)
			if !p.at(opSemi) {
				rs.X = p.parseExpr()
			}
			p.expect(opSemi)
			return rs
		case kwBreak:
			p.next()
			p.expect(opSemi)
			return &BreakStmt{position: position(t.Line)}
		case kwContinue:
			p.next()
			p.expect(opSemi)
			return &ContinueStmt{position: position(t.Line)}
		default:
			p.errorf(t.Line, "unsupported keyword %q in statement position", t.Text)
			p.next()
			p.sync()
			return nil
		}
	default:
		x := p.parseExpr()
		p.expect(opSemi)
		return p.exprStmt(x, t.Line)
	}
}

func (p *Parser) exprStmt(x Expr, line int) *ExprStmt {
	es := p.exprStmts.new()
	*es = ExprStmt{X: x, position: position(line)}
	return es
}

// parsePragmaStmt handles a pragma token in statement position,
// attaching the following construct according to the directive's
// association.
func (p *Parser) parsePragmaStmt(t Token) Stmt {
	dir, sd, ok := parseDirective(t.Text, p.dialect, t.Line, &p.directives, &p.clauses)
	if !ok {
		return &UnknownPragmaStmt{Raw: t.Text, position: position(t.Line)}
	}
	ds := p.dirStmts.new()
	*ds = DirectiveStmt{Dir: dir, position: position(t.Line)}
	assoc := spec.AssocNone
	if dir.Known {
		if sd.Standalone {
			return ds
		}
		assoc = sd.Association
	} else {
		// Unknown directive: attach a following construct only if one
		// plausibly belongs to it (a brace block or loop), mirroring how
		// real compilers recover; otherwise treat as standalone. The
		// compiler rejects the directive either way.
		if p.at(opLBrace) || p.at(kwFor) {
			ds.Body = p.parseStmt()
		}
		return ds
	}
	switch assoc {
	case spec.AssocNone:
		return ds
	default:
		if p.at(opRBrace) || p.tok.Kind == EOF {
			p.errorf(t.Line, "directive %q requires a following statement", dir.Name)
			return ds
		}
		ds.Body = p.parseStmt()
		return ds
	}
}

func (p *Parser) parseDeclStmt() Stmt {
	startLine := p.tok.Line
	typ, isConst, ok := p.parseType()
	if !ok {
		p.errorf(startLine, "expected type in declaration")
		p.sync()
		return nil
	}
	nameTok := p.tok
	if nameTok.Kind != Ident {
		p.errorf(nameTok.Line, "expected identifier in declaration, found %q", nameTok.Text)
		p.sync()
		return nil
	}
	p.next()
	ds := p.declStmts.new()
	ds.Decls = p.parseVarDeclRest(typ, isConst, nameTok)
	ds.position = position(startLine)
	return ds
}

func (p *Parser) parseIf() Stmt {
	t := p.take() // 'if'
	is := p.ifs.new()
	is.position = position(t.Line)
	p.expect(opLParen)
	is.Cond = p.parseExpr()
	p.expect(opRParen)
	is.Then = p.parseStmt()
	if p.accept(kwElse) {
		is.Else = p.parseStmt()
	}
	return is
}

func (p *Parser) parseFor() Stmt {
	t := p.take() // 'for'
	fs := p.fors.new()
	fs.position = position(t.Line)
	p.expect(opLParen)
	switch {
	case p.accept(opSemi):
	case isTypeStart(p.tok):
		startLine := p.tok.Line
		typ, isConst, _ := p.parseType()
		nameTok := p.tok
		if nameTok.Kind != Ident {
			p.errorf(nameTok.Line, "expected loop variable name")
			p.sync()
			break
		}
		p.next()
		vd := p.varDecls.new()
		*vd = VarDecl{Name: nameTok.Text, Type: typ, Const: isConst, position: position(nameTok.Line)}
		if p.accept(opAssign) {
			vd.Init = p.parseAssign()
		}
		ds := p.declStmts.new()
		ds.Decls = p.declLists.take(1)
		ds.Decls[0] = vd
		ds.position = position(startLine)
		fs.Init = ds
		p.expect(opSemi)
	default:
		fs.Init = p.exprStmt(p.parseExpr(), t.Line)
		p.expect(opSemi)
	}
	if !p.at(opSemi) {
		fs.Cond = p.parseExpr()
	}
	p.expect(opSemi)
	if !p.at(opRParen) {
		fs.Post = p.parseExpr()
	}
	p.expect(opRParen)
	fs.Body = p.parseStmt()
	return fs
}

func (p *Parser) parseWhile() Stmt {
	t := p.take() // 'while'
	ws := &WhileStmt{position: position(t.Line)}
	p.expect(opLParen)
	ws.Cond = p.parseExpr()
	p.expect(opRParen)
	ws.Body = p.parseStmt()
	return ws
}

// Expression parsing: precedence climbing.

func (p *Parser) parseExpr() Expr { return p.parseAssign() }

func (p *Parser) parseAssign() Expr {
	lhs := p.parseTernary()
	t := p.tok
	switch t.op {
	case opAssign, opAddAssign, opSubAssign, opMulAssign, opQuoAssign, opRemAssign:
		p.next()
		rhs := p.parseAssign()
		a := p.assigns.new()
		*a = AssignExpr{Op: t.Text, L: lhs, R: rhs, position: position(t.Line)}
		return a
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	cond := p.parseBinary(1)
	if p.at(opQuest) {
		t := p.take()
		then := p.parseExpr()
		p.expect(opColon)
		els := p.parseTernary()
		return &CondExpr{Cond: cond, Then: then, Else: els, position: position(t.Line)}
	}
	return cond
}

// parseBinary parses operands joined by binary operators of precedence
// minPrec (at least 1) or higher.
func (p *Parser) parseBinary(minPrec uint8) Expr {
	lhs := p.parseUnary()
	for {
		t := p.tok
		prec := binPrec[t.op]
		if prec < minPrec {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		b := p.binaries.new()
		*b = BinaryExpr{Op: t.Text, L: lhs, R: rhs, position: position(t.Line)}
		lhs = b
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.tok
	switch t.op {
	case opNot, opSub, opAdd, opMul, opAnd, opTilde, opInc, opDec:
		p.next()
		x := p.parseUnary()
		if t.op == opAdd {
			return x
		}
		return &UnaryExpr{Op: t.Text, X: x, position: position(t.Line)}
	case opLParen:
		// Cast or parenthesised expression.
		if isTypeStart(p.peek()) {
			p.next()
			typ, _, ok := p.parseType()
			if !ok {
				p.errorf(t.Line, "bad cast type")
			}
			p.expect(opRParen)
			x := p.parseUnary()
			c := p.casts.new()
			*c = CastExpr{To: typ, X: x, position: position(t.Line)}
			return c
		}
	case kwSizeof:
		p.next()
		p.expect(opLParen)
		if isTypeStart(p.tok) {
			typ, _, _ := p.parseType()
			p.expect(opRParen)
			return &SizeofExpr{Of: typ, position: position(t.Line)}
		}
		// sizeof(expr): the corpus only uses sizeof(type), so the
		// expression is parsed for its errors and the operand taken
		// as a long.
		p.parseExpr()
		p.expect(opRParen)
		return &SizeofExpr{Of: Type{Base: "long"}, position: position(t.Line)}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		t := p.tok
		switch t.op {
		case opLBrack:
			p.next()
			idx := p.parseExpr()
			p.expect(opRBrack)
			ix := p.indexes.new()
			*ix = IndexExpr{X: x, Index: idx, position: position(t.Line)}
			x = ix
		case opInc, opDec:
			p.next()
			pf := p.postfixes.new()
			*pf = PostfixExpr{Op: t.Text, X: x, position: position(t.Line)}
			x = pf
		case opPeriod, opArrow:
			p.errorf(t.Line, "member access is not supported by the test dialect")
			p.next()
			if p.tok.Kind == Ident {
				p.next()
			}
			return x
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	t := p.tok
	switch t.Kind {
	case Ident:
		p.next()
		if p.at(opLParen) {
			return p.parseCall(t)
		}
		id := p.idents.new()
		*id = IdentExpr{Name: t.Text, position: position(t.Line)}
		return id
	case IntLit:
		p.next()
		v, err := parseInt(t.Text)
		if err != nil {
			p.errorf(t.Line, "bad integer literal %q", t.Text)
		}
		return p.intLit(v, t.Line)
	case FloatLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errorf(t.Line, "bad float literal %q", t.Text)
		}
		return &FloatLitExpr{Value: v, Text: t.Text, position: position(t.Line)}
	case StringLit:
		p.next()
		sl := p.strs.new()
		*sl = StringLitExpr{Value: t.Text, position: position(t.Line)}
		return sl
	case CharLit:
		p.next()
		var b byte
		if len(t.Text) > 0 {
			b = t.Text[0]
		}
		return &CharLitExpr{Value: b, position: position(t.Line)}
	case Punct:
		if t.op == opLParen {
			p.next()
			x := p.parseExpr()
			p.expect(opRParen)
			return x
		}
	}
	p.errorf(t.Line, "expected expression, found %s %q", t.Kind, t.Text)
	p.next()
	return p.intLit(0, t.Line)
}

func (p *Parser) intLit(v int64, line int) *IntLitExpr {
	n := p.ints.new()
	*n = IntLitExpr{Value: v, position: position(line)}
	return n
}

func (p *Parser) parseCall(nameTok Token) Expr {
	call := p.calls.new()
	*call = CallExpr{Fun: nameTok.Text, position: position(nameTok.Line)}
	p.expect(opLParen)
	var buf [8]Expr
	args := buf[:0]
	if !p.at(opRParen) {
		for {
			args = append(args, p.parseAssign())
			if !p.accept(opComma) {
				break
			}
		}
	}
	call.Args = p.exprLists.clone(args)
	p.expect(opRParen)
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

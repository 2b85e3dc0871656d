package testlang

import (
	"fmt"
	"strconv"
	"strings"
)

// Render produces compilable source text for the file in its own
// language (C or C++; Fortran files are produced by the dedicated
// generator in internal/corpus and re-checked by the Fortran front
// end, not rendered from this AST).
func Render(f *File) string {
	r := &renderer{lang: f.Lang}
	r.file(f)
	return r.b.String()
}

type renderer struct {
	b      strings.Builder
	indent int
	lang   Language
}

func (r *renderer) line(format string, args ...any) {
	r.b.WriteString(strings.Repeat("    ", r.indent))
	fmt.Fprintf(&r.b, format, args...)
	r.b.WriteByte('\n')
}

// hashLine writes a preprocessor line. A text ending in a backslash
// gets a space after it, which the lexer trims again, so the line does
// not continue onto the next.
func (r *renderer) hashLine(directive, text string) {
	if strings.HasSuffix(text, "\\") {
		text += " "
	}
	r.line("%s %s", directive, text)
}

func (r *renderer) file(f *File) {
	for _, inc := range f.Includes {
		r.hashLine("#include", inc)
	}
	if len(f.Includes) > 0 {
		r.b.WriteByte('\n')
	}
	for i, d := range f.Decls {
		if i > 0 {
			r.b.WriteByte('\n')
		}
		switch n := d.(type) {
		case *VarDecl:
			r.line("%s;", r.varDecl(n))
		case *FuncDecl:
			r.funcDecl(n)
		}
	}
}

func (r *renderer) varDecl(v *VarDecl) string {
	var b strings.Builder
	if v.Const {
		b.WriteString("const ")
	}
	b.WriteString(v.Type.Base)
	b.WriteByte(' ')
	b.WriteString(strings.Repeat("*", v.Type.Ptr))
	b.WriteString(v.Name)
	for _, dim := range v.ArrayDims {
		b.WriteByte('[')
		if dim != nil {
			b.WriteString(RenderExpr(dim))
		}
		b.WriteByte(']')
	}
	if v.Init != nil {
		b.WriteString(" = ")
		b.WriteString(RenderExpr(v.Init))
	}
	return b.String()
}

func (r *renderer) funcDecl(fd *FuncDecl) {
	for _, pr := range fd.Pragmas {
		r.hashLine("#pragma", pr.Dir.String())
	}
	var params []string
	if len(fd.Params) == 0 {
		params = []string{}
	}
	for _, p := range fd.Params {
		s := p.Type.Base + " " + strings.Repeat("*", p.Type.Ptr) + p.Name
		if p.Array {
			s += "[]"
		}
		params = append(params, s)
	}
	sig := fmt.Sprintf("%s %s(%s)", fd.Ret, fd.Name, strings.Join(params, ", "))
	if fd.Body == nil {
		r.line("%s;", sig)
		return
	}
	r.line("%s", sig)
	r.block(fd.Body)
}

func (r *renderer) block(b *Block) {
	r.line("{")
	r.indent++
	for _, s := range b.Stmts {
		r.stmt(s)
	}
	r.indent--
	r.line("}")
}

func (r *renderer) stmt(s Stmt) {
	switch n := s.(type) {
	case *Block:
		r.block(n)
	case *DeclStmt:
		for _, d := range n.Decls {
			r.line("%s;", r.varDecl(d))
		}
	case *ExprStmt:
		r.line("%s;", RenderExpr(n.X))
	case *EmptyStmt:
		r.line(";")
	case *IfStmt:
		r.line("if (%s)", RenderExpr(n.Cond))
		r.stmtAsBody(n.Then)
		if n.Else != nil {
			r.line("else")
			r.stmtAsBody(n.Else)
		}
	case *ForStmt:
		init := ""
		switch in := n.Init.(type) {
		case *DeclStmt:
			if len(in.Decls) == 1 {
				init = r.varDecl(in.Decls[0])
			}
		case *ExprStmt:
			init = RenderExpr(in.X)
		}
		cond := ""
		if n.Cond != nil {
			cond = RenderExpr(n.Cond)
		}
		post := ""
		if n.Post != nil {
			post = RenderExpr(n.Post)
		}
		r.line("for (%s; %s; %s)", init, cond, post)
		r.stmtAsBody(n.Body)
	case *WhileStmt:
		r.line("while (%s)", RenderExpr(n.Cond))
		r.stmtAsBody(n.Body)
	case *ReturnStmt:
		if n.X != nil {
			r.line("return %s;", RenderExpr(n.X))
		} else {
			r.line("return;")
		}
	case *BreakStmt:
		r.line("break;")
	case *ContinueStmt:
		r.line("continue;")
	case *DirectiveStmt:
		r.hashLine("#pragma", n.Dir.String())
		if n.Body != nil {
			r.stmt(n.Body)
		}
	case *UnknownPragmaStmt:
		r.hashLine("#pragma", n.Raw)
	}
}

// stmtAsBody renders the body of a control statement; blocks render
// with braces, single statements render indented.
func (r *renderer) stmtAsBody(s Stmt) {
	if b, ok := s.(*Block); ok {
		r.block(b)
		return
	}
	r.indent++
	r.stmt(s)
	r.indent--
}

// RenderExpr renders an expression to C syntax.
func RenderExpr(e Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *IdentExpr:
		return n.Name
	case *IntLitExpr:
		return strconv.FormatInt(n.Value, 10)
	case *FloatLitExpr:
		if n.Text != "" {
			return n.Text
		}
		s := strconv.FormatFloat(n.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *StringLitExpr:
		return quoteC(n.Value)
	case *CharLitExpr:
		if esc := escapeC(n.Value, '\''); esc != "" {
			return "'" + esc + "'"
		}
		return "'" + byteText[n.Value:int(n.Value)+1] + "'"
	case *BinaryExpr:
		return fmt.Sprintf("%s %s %s", renderOperand(n.L, n.Op, true), n.Op, renderOperand(n.R, n.Op, false))
	case *UnaryExpr:
		operand := RenderExpr(n.X)
		if needsParens(n.X) {
			operand = "(" + operand + ")"
		}
		return n.Op + operand
	case *PostfixExpr:
		operand := RenderExpr(n.X)
		if needsParens(n.X) {
			operand = "(" + operand + ")"
		}
		return operand + n.Op
	case *AssignExpr:
		return fmt.Sprintf("%s %s %s", RenderExpr(n.L), n.Op, RenderExpr(n.R))
	case *CondExpr:
		return fmt.Sprintf("%s ? %s : %s", RenderExpr(n.Cond), RenderExpr(n.Then), RenderExpr(n.Else))
	case *CallExpr:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = RenderExpr(a)
		}
		return fmt.Sprintf("%s(%s)", n.Fun, strings.Join(args, ", "))
	case *IndexExpr:
		base := RenderExpr(n.X)
		if needsParens(n.X) {
			base = "(" + base + ")"
		}
		return fmt.Sprintf("%s[%s]", base, RenderExpr(n.Index))
	case *CastExpr:
		operand := RenderExpr(n.X)
		if needsParens(n.X) {
			operand = "(" + operand + ")"
		}
		return fmt.Sprintf("(%s)%s", n.To, operand)
	case *SizeofExpr:
		return fmt.Sprintf("sizeof(%s)", n.Of)
	case *InitList:
		elems := make([]string, len(n.Elems))
		for i, el := range n.Elems {
			elems[i] = RenderExpr(el)
		}
		return "{" + strings.Join(elems, ", ") + "}"
	default:
		return "/*?*/0"
	}
}

// quoteC quotes s as a C string literal the lexer reads back as s.
func quoteC(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if esc := escapeC(s[i], '"'); esc != "" {
			b.WriteString(esc)
		} else {
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('"')
	return b.String()
}

// escapeC is the escape sequence Render writes for c inside a literal
// quoted by q, or "" when c is written as it is. Control bytes with a
// simple escape, the backslash and q are escaped; the lexer decodes
// each sequence back to c.
func escapeC(c, q byte) string {
	switch c {
	case '\n':
		return `\n`
	case '\t':
		return `\t`
	case '\r':
		return `\r`
	case '\a':
		return `\a`
	case '\b':
		return `\b`
	case '\f':
		return `\f`
	case '\v':
		return `\v`
	case 0:
		return `\0`
	case '\\':
		return `\\`
	case q:
		if q == '"' {
			return `\"`
		}
		return `\'`
	}
	return ""
}

// renderOperand parenthesises operands of binary expressions whenever
// precedence could be ambiguous. The renderer prefers a few redundant
// parentheses over subtle precedence bugs in generated tests.
func renderOperand(e Expr, parentOp string, left bool) string {
	s := RenderExpr(e)
	b, ok := e.(*BinaryExpr)
	if !ok {
		if _, isAssign := e.(*AssignExpr); isAssign {
			return "(" + s + ")"
		}
		if _, isCond := e.(*CondExpr); isCond {
			return "(" + s + ")"
		}
		return s
	}
	pp, cp := binPrec[punctCode(parentOp)], binPrec[punctCode(b.Op)]
	if cp < pp || (cp == pp && !left) {
		return "(" + s + ")"
	}
	return s
}

func needsParens(e Expr) bool {
	switch e.(type) {
	case *BinaryExpr, *AssignExpr, *CondExpr, *CastExpr, *UnaryExpr:
		return true
	}
	return false
}

package testlang

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// Language identifies the surface syntax of a source file.
type Language int

const (
	// LangC is a C source file (.c).
	LangC Language = iota
	// LangCPP is a C++ source file (.cpp); the dialect is the same as
	// C plus tolerated C++ lexical extensions.
	LangCPP
	// LangFortran is a free-form Fortran source file (.f90), handled by
	// the Fortran front end in fortran.go.
	LangFortran
)

// String returns the conventional name of the language.
func (l Language) String() string {
	switch l {
	case LangC:
		return "C"
	case LangCPP:
		return "C++"
	case LangFortran:
		return "Fortran"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// Ext returns the conventional file extension including the dot.
func (l Language) Ext() string {
	switch l {
	case LangC:
		return ".c"
	case LangCPP:
		return ".cpp"
	case LangFortran:
		return ".f90"
	default:
		return ".txt"
	}
}

// Type is a C-dialect type. Arrays are represented on declarations via
// VarDecl.ArrayDims rather than in Type itself.
type Type struct {
	// Base is one of "int", "long", "float", "double", "char", "void",
	// "bool". Unsigned/short variants are folded into these.
	Base string
	// Ptr is the pointer depth (0 for scalars, 1 for int*, ...).
	Ptr int
}

func (t Type) String() string {
	return t.Base + strings.Repeat("*", t.Ptr)
}

// IsFloat reports whether the base type is floating point.
func (t Type) IsFloat() bool { return t.Ptr == 0 && (t.Base == "float" || t.Base == "double") }

// IsNumeric reports whether values of this type participate in
// arithmetic.
func (t Type) IsNumeric() bool {
	return t.Ptr == 0 && (t.Base == "int" || t.Base == "long" || t.Base == "float" || t.Base == "double" || t.Base == "char" || t.Base == "bool")
}

// Binding is the declaration a name binds, as the checker resolved it
// with C's scoping. A function numbers its parameters and then its local
// declarations densely from 0, in order; a file numbers its variables
// in order. The zero Binding binds no variable: a builtin constant, a
// function name, or a name no checker has bound.
type Binding int32

// LocalBinding binds a function's parameter or local variable n.
func LocalBinding(n int) Binding { return Binding(n + 1) }

// GlobalBinding binds the file's variable g.
func GlobalBinding(g int) Binding { return Binding(-g - 1) }

// Local returns the number of the local variable b binds, if it binds
// one.
func (b Binding) Local() (int, bool) { return int(b) - 1, b > 0 }

// Global returns the number of the file variable b binds, if it binds
// one.
func (b Binding) Global() (int, bool) { return int(-b) - 1, b < 0 }

// Node is the interface implemented by all AST nodes.
type Node interface {
	// Pos returns the 1-based source line of the node (0 if synthetic).
	Pos() int
}

type position int

func (p position) Pos() int { return int(p) }

// File is a parsed source file.
type File struct {
	Lang     Language
	Includes []string // raw include targets, e.g. "<stdio.h>"
	Decls    []Decl
	position
}

// Decl is a top-level declaration: *FuncDecl or *VarDecl.
type Decl interface {
	Node
	declNode()
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    Type
	Params []Param
	Body   *Block
	// Pragmas holds directives written immediately before the function
	// (e.g. "#pragma acc routine seq").
	Pragmas []*DirectiveStmt
	// Locals is the number of parameters and local variables the
	// checker numbered (Binding).
	Locals int
	position
}

func (*FuncDecl) declNode() {}

// Param is one function parameter. ArrayDims holds dimensions for
// parameters declared in array form (e.g. "int a[]", recorded as one
// nil dimension).
type Param struct {
	Name string
	Type Type
	// Array is true when the parameter was written with [] syntax.
	Array bool
}

// VarDecl declares one variable, possibly an array, possibly
// initialised. A single source declaration with multiple declarators
// is parsed into multiple VarDecls.
type VarDecl struct {
	Name string
	Type Type
	// ArrayDims holds the declared dimensions; nil for scalars.
	ArrayDims []Expr
	// Init is the initialiser expression, or nil. Brace initialisers
	// become *InitList.
	Init Expr
	// Const records a const qualifier (semantically ignored).
	Const bool
	// Bind is this declaration's own binding, which the checker sets.
	Bind Binding
	position
}

func (*VarDecl) declNode() {}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a compound statement.
type Block struct {
	Stmts []Stmt
	// EndLine is the line of the closing brace, used by mutators.
	EndLine int
	position
}

func (*Block) stmtNode() {}

// DeclStmt wraps variable declarations appearing inside a block.
type DeclStmt struct {
	Decls []*VarDecl
	position
}

func (*DeclStmt) stmtNode() {}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	X Expr
	position
}

func (*ExprStmt) stmtNode() {}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // nil when absent
	position
}

func (*IfStmt) stmtNode() {}

// ForStmt is a C for loop. Init may be a *DeclStmt or *ExprStmt or nil.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
	position
}

func (*ForStmt) stmtNode() {}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	position
}

func (*WhileStmt) stmtNode() {}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	X Expr // nil for bare return
	position
}

func (*ReturnStmt) stmtNode() {}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ position }

func (*BreakStmt) stmtNode() {}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ position }

func (*ContinueStmt) stmtNode() {}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ position }

func (*EmptyStmt) stmtNode() {}

// DirectiveStmt is a parsed #pragma acc/omp directive together with
// the construct it applies to (nil for standalone directives).
type DirectiveStmt struct {
	Dir *Directive
	// Body is the associated statement (a loop for AssocLoop
	// directives, any statement/block for AssocBlock, the single
	// statement for AssocStatement). Nil for standalone directives.
	Body Stmt
	position
}

func (*DirectiveStmt) stmtNode() {}

// UnknownPragmaStmt preserves a #pragma line that is not an acc/omp
// directive of the file's expected shape (e.g. "#pragma once", or a
// corrupted sentinel produced by negative probing). The compiler
// warns on or rejects these depending on personality.
type UnknownPragmaStmt struct {
	Raw string
	position
}

func (*UnknownPragmaStmt) stmtNode() {}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// IdentExpr references a variable or function by name.
type IdentExpr struct {
	Name string
	// Bind is the declaration the name binds, which the checker sets.
	Bind Binding
	position
}

func (*IdentExpr) exprNode() {}

// IntLitExpr is an integer literal.
type IntLitExpr struct {
	Value int64
	position
}

func (*IntLitExpr) exprNode() {}

// FloatLitExpr is a floating literal.
type FloatLitExpr struct {
	Value float64
	// Text preserves the original spelling for faithful re-rendering.
	Text string
	position
}

func (*FloatLitExpr) exprNode() {}

// StringLitExpr is a string literal (unescaped value).
type StringLitExpr struct {
	Value string
	position
}

func (*StringLitExpr) exprNode() {}

// CharLitExpr is a character literal.
type CharLitExpr struct {
	Value byte
	position
}

func (*CharLitExpr) exprNode() {}

// BinaryExpr is a binary operation; Op is the operator spelling.
type BinaryExpr struct {
	Op   string
	L, R Expr
	position
}

func (*BinaryExpr) exprNode() {}

// UnaryExpr is a prefix unary operation ("!", "-", "*", "&", "++", "--").
type UnaryExpr struct {
	Op string
	X  Expr
	position
}

func (*UnaryExpr) exprNode() {}

// PostfixExpr is x++ or x--.
type PostfixExpr struct {
	Op string // "++" or "--"
	X  Expr
	position
}

func (*PostfixExpr) exprNode() {}

// AssignExpr is an assignment; Op is "=", "+=", "-=", "*=" or "/=".
type AssignExpr struct {
	Op   string
	L, R Expr
	position
}

func (*AssignExpr) exprNode() {}

// CondExpr is the ternary conditional.
type CondExpr struct {
	Cond, Then, Else Expr
	position
}

func (*CondExpr) exprNode() {}

// CallExpr is a function call.
type CallExpr struct {
	Fun  string
	Args []Expr
	position
}

func (*CallExpr) exprNode() {}

// IndexExpr is array/pointer indexing, possibly multi-dimensional via
// nesting (a[i][j] parses as Index(Index(a,i),j)).
type IndexExpr struct {
	X     Expr
	Index Expr
	position
}

func (*IndexExpr) exprNode() {}

// CastExpr is a C cast, e.g. (int*)malloc(...).
type CastExpr struct {
	To Type
	// ToArray is true for pointer-to-array style casts, unused by the
	// corpus but tolerated.
	X Expr
	position
}

func (*CastExpr) exprNode() {}

// SizeofExpr is sizeof(type).
type SizeofExpr struct {
	Of Type
	position
}

func (*SizeofExpr) exprNode() {}

// InitList is a brace initialiser {a, b, c}.
type InitList struct {
	Elems []Expr
	position
}

func (*InitList) exprNode() {}

// Directive is a structured, parsed directive.
type Directive struct {
	Dialect spec.Dialect
	// Name is the space-normalised directive name, e.g. "parallel loop".
	Name string
	// Clauses in source order.
	Clauses []DirClause
	// Raw preserves the original pragma body text.
	Raw string
	// Known is false when the directive name did not match the spec
	// table (the structured fields are then best-effort).
	Known bool
	position
}

// DirClause is one clause instance on a directive.
type DirClause struct {
	Name string
	// Arg is the raw text inside the parentheses ("" when absent).
	Arg string
	// HasParens records whether parentheses were present (distinguishes
	// "async" from "async()" for validation).
	HasParens bool
}

// String re-renders the directive as it would appear after "#pragma ".
func (d *Directive) String() string {
	var b strings.Builder
	b.WriteString(d.Dialect.Sentinel())
	b.WriteByte(' ')
	b.WriteString(d.Name)
	for _, c := range d.Clauses {
		b.WriteByte(' ')
		b.WriteString(c.Name)
		if c.HasParens {
			b.WriteByte('(')
			b.WriteString(c.Arg)
			b.WriteByte(')')
		}
	}
	return b.String()
}

// Walk traverses the statement tree rooted at s in depth-first order,
// calling fn for every statement; fn returning false prunes descent.
func Walk(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch n := s.(type) {
	case *Block:
		for _, st := range n.Stmts {
			Walk(st, fn)
		}
	case *IfStmt:
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	case *ForStmt:
		Walk(n.Init, fn)
		Walk(n.Body, fn)
	case *WhileStmt:
		Walk(n.Body, fn)
	case *DirectiveStmt:
		Walk(n.Body, fn)
	}
}

// WalkExprs traverses every expression in the statement tree rooted at
// s, including nested subexpressions.
func WalkExprs(s Stmt, fn func(Expr)) {
	Walk(s, func(st Stmt) bool {
		switch n := st.(type) {
		case *DeclStmt:
			for _, d := range n.Decls {
				for _, dim := range d.ArrayDims {
					walkExpr(dim, fn)
				}
				walkExpr(d.Init, fn)
			}
		case *ExprStmt:
			walkExpr(n.X, fn)
		case *IfStmt:
			walkExpr(n.Cond, fn)
		case *ForStmt:
			walkExpr(n.Cond, fn)
			walkExpr(n.Post, fn)
		case *WhileStmt:
			walkExpr(n.Cond, fn)
		case *ReturnStmt:
			walkExpr(n.X, fn)
		}
		return true
	})
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *BinaryExpr:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *UnaryExpr:
		walkExpr(n.X, fn)
	case *PostfixExpr:
		walkExpr(n.X, fn)
	case *AssignExpr:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *CondExpr:
		walkExpr(n.Cond, fn)
		walkExpr(n.Then, fn)
		walkExpr(n.Else, fn)
	case *CallExpr:
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *IndexExpr:
		walkExpr(n.X, fn)
		walkExpr(n.Index, fn)
	case *CastExpr:
		walkExpr(n.X, fn)
	case *InitList:
		for _, el := range n.Elems {
			walkExpr(el, fn)
		}
	}
}

// Directives returns every DirectiveStmt in the file in source order.
func (f *File) Directives() []*DirectiveStmt {
	var out []*DirectiveStmt
	for _, d := range f.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok {
			continue
		}
		out = append(out, fd.Pragmas...)
		if fd.Body == nil {
			continue
		}
		Walk(fd.Body, func(s Stmt) bool {
			if ds, ok := s.(*DirectiveStmt); ok {
				out = append(out, ds)
			}
			return true
		})
	}
	return out
}

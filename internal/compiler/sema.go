package compiler

import (
	"fmt"

	"repro/internal/testlang"
)

// builtin function signatures: argument count range (max < 0 means
// variadic).
type builtinSig struct {
	min, max int
}

var builtins = map[string]builtinSig{
	"printf":  {1, -1},
	"fprintf": {2, -1},
	"malloc":  {1, 1},
	"calloc":  {2, 2},
	"free":    {1, 1},
	"exit":    {1, 1},
	"abs":     {1, 1},
	"labs":    {1, 1},
	"fabs":    {1, 1},
	"fabsf":   {1, 1},
	"sqrt":    {1, 1},
	"sqrtf":   {1, 1},
	"pow":     {2, 2},
	"floor":   {1, 1},
	"ceil":    {1, 1},
	"fmax":    {2, 2},
	"fmin":    {2, 2},
	"sin":     {1, 1},
	"cos":     {1, 1},
	"exp":     {1, 1},
	"log":     {1, 1},
	// Runtime-library queries modelled as builtins.
	"omp_get_num_threads":   {0, 0},
	"omp_get_thread_num":    {0, 0},
	"omp_get_max_threads":   {0, 0},
	"omp_get_num_devices":   {0, 0},
	"omp_is_initial_device": {0, 0},
	"acc_get_num_devices":   {0, 1},
	"acc_get_device_num":    {0, 1},
}

// builtinConsts are identifiers that resolve without declaration.
var builtinConsts = map[string]testlang.Type{
	"NULL":               {Base: "void", Ptr: 1},
	"stderr":             {Base: "void", Ptr: 1},
	"stdout":             {Base: "void", Ptr: 1},
	"RAND_MAX":           {Base: "int"},
	"acc_device_default": {Base: "int"},
	"acc_device_nvidia":  {Base: "int"},
	"acc_device_host":    {Base: "int"},
	"omp_sched_static":   {Base: "int"},
	"omp_sched_dynamic":  {Base: "int"},
	"EXIT_SUCCESS":       {Base: "int"},
	"EXIT_FAILURE":       {Base: "int"},
}

// symbol is one declared name: its type and the declaration it binds.
type symbol struct {
	name    string
	typ     testlang.Type
	isArray bool
	dims    int
	bind    testlang.Binding
}

// checker performs semantic analysis over one parsed file.
type checker struct {
	pers    *Personality
	file    *testlang.File
	diags   []Diagnostic
	funcs   map[string]*testlang.FuncDecl
	globals []*testlang.VarDecl
	plans   map[*testlang.DirectiveStmt]*DirPlan
	// loopForms records the canonical form of every for statement that
	// has one (Object.Loops).
	loopForms map[*testlang.ForStmt]*LoopForm
	// syms holds the declarations in scope, innermost last, and scopes
	// the index in syms where each open scope starts: the file's scope,
	// then one per function, block, for and statement body.
	syms   []symbol
	scopes []int
	// locals numbers the declarations of the function being checked.
	locals int
	// implicitWarned avoids repeating the implicit-declaration
	// diagnostic for the same function name.
	implicitWarned map[string]bool
	// curFunc is the function being checked (for return diagnostics).
	curFunc *testlang.FuncDecl
	// directiveDepth > 0 while inside a compute construct, to validate
	// orphaned loop directives.
	directiveDepth int
	// loops counts the loops between the statement being checked and
	// the nearest function or directive body, and inDirective is set
	// inside a directive body: a break or continue needs a loop, and a
	// return must not leave a directive body.
	loops       int
	inDirective bool
	// regions are the planned directives whose bodies enclose the
	// statement being checked, outermost first, each collecting its
	// region analyses; writes are protected in regions[:exclusive], those
	// an atomic, critical, single or master around the statement nests
	// in.
	regions   []*region
	exclusive int
	// covered holds the variables the clauses of the planned directives
	// around the statement being checked name. It backs the OpenACC
	// "size of the GPU copy is unknown" restriction.
	covered []testlang.Binding
}

func (c *checker) errorf(line int, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) warnf(line int, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Line: line, Warning: true, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) push() { c.scopes = append(c.scopes, len(c.syms)) }

func (c *checker) pop() {
	n := len(c.scopes) - 1
	c.syms = c.syms[:c.scopes[n]]
	c.scopes = c.scopes[:n]
}

// lookup finds the innermost declaration of name in scope.
func (c *checker) lookup(name string) (*symbol, bool) {
	for i := len(c.syms) - 1; i >= 0; i-- {
		if c.syms[i].name == name {
			return &c.syms[i], true
		}
	}
	return nil, false
}

// declare adds sym to the innermost scope; it reports false when that
// scope already declares the name.
func (c *checker) declare(sym symbol) bool {
	for _, prev := range c.syms[c.scopes[len(c.scopes)-1]:] {
		if prev.name == sym.name {
			return false
		}
	}
	c.syms = append(c.syms, sym)
	return true
}

// declareVar declares a variable and gives it the next binding of its
// function, or of the file's variables when it is a global.
func (c *checker) declareVar(d *testlang.VarDecl) bool {
	if c.curFunc != nil {
		d.Bind = testlang.LocalBinding(c.locals)
		c.locals++
	} else {
		d.Bind = testlang.GlobalBinding(len(c.globals) - 1)
	}
	return c.declare(symbol{name: d.Name, typ: d.Type, isArray: len(d.ArrayDims) > 0, dims: len(d.ArrayDims), bind: d.Bind})
}

// check runs all semantic checks and returns the diagnostics.
func (c *checker) check() []Diagnostic {
	c.funcs = map[string]*testlang.FuncDecl{}
	c.plans = map[*testlang.DirectiveStmt]*DirPlan{}
	c.loopForms = map[*testlang.ForStmt]*LoopForm{}
	c.implicitWarned = map[string]bool{}
	c.push()

	// Pass 1: collect file-scope names so call order does not matter.
	for _, d := range c.file.Decls {
		switch n := d.(type) {
		case *testlang.FuncDecl:
			if prev, dup := c.funcs[n.Name]; dup && prev.Body != nil && n.Body != nil {
				c.errorf(n.Pos(), "redefinition of function %q", n.Name)
			}
			if n.Body != nil || c.funcs[n.Name] == nil {
				c.funcs[n.Name] = n
			}
		case *testlang.VarDecl:
			c.globals = append(c.globals, n)
			if !c.declareVar(n) {
				c.errorf(n.Pos(), "redefinition of %q", n.Name)
			}
		}
	}

	// Pass 2: check bodies.
	for _, d := range c.file.Decls {
		switch n := d.(type) {
		case *testlang.VarDecl:
			c.checkVarInit(n)
		case *testlang.FuncDecl:
			c.checkFunc(n)
		}
	}

	if main, ok := c.funcs["main"]; !ok || main.Body == nil {
		c.errorf(1, "undefined reference to `main'")
	}
	return c.diags
}

func (c *checker) checkVarInit(v *testlang.VarDecl) {
	for _, dim := range v.ArrayDims {
		if dim != nil {
			c.checkExpr(dim)
		}
	}
	if v.Init != nil {
		c.checkExpr(v.Init)
	}
}

func (c *checker) checkFunc(fd *testlang.FuncDecl) {
	for _, pr := range fd.Pragmas {
		c.plans[pr] = c.validateDirective(pr, true)
	}
	if fd.Body == nil {
		return
	}
	c.curFunc, c.locals = fd, len(fd.Params)
	c.push()
	for i, p := range fd.Params {
		sym := symbol{name: p.Name, typ: p.Type, isArray: p.Array, bind: testlang.LocalBinding(i)}
		if p.Array {
			sym.dims = 1
		}
		if p.Name != "" && !c.declare(sym) {
			c.errorf(fd.Pos(), "duplicate parameter %q", p.Name)
		}
	}
	c.checkStmt(fd.Body)
	c.pop()
	fd.Locals = c.locals
	c.curFunc = nil
}

func (c *checker) checkStmt(s testlang.Stmt) {
	switch n := s.(type) {
	case nil:
	case *testlang.Block:
		c.push()
		for _, st := range n.Stmts {
			c.checkStmt(st)
		}
		c.pop()
	case *testlang.DeclStmt:
		for _, d := range n.Decls {
			c.checkVarInit(d)
			if !c.declareVar(d) {
				c.errorf(d.Pos(), "redefinition of %q", d.Name)
			}
		}
	case *testlang.ExprStmt:
		c.checkExpr(n.X)
	case *testlang.IfStmt:
		c.checkExpr(n.Cond)
		c.body(n.Then, "'if'")
		c.body(n.Else, "'else'")
	case *testlang.ForStmt:
		// A loop directive's own loop already has its form, if any.
		if _, seen := c.loopForms[n]; !seen {
			if f := c.canonicalLoop(n, nil); f != nil {
				c.loopForms[n] = f
			}
		}
		c.push()
		c.checkStmt(n.Init)
		if n.Cond != nil {
			c.checkExpr(n.Cond)
		}
		if n.Post != nil {
			c.checkExpr(n.Post)
		}
		// A loop directive's writes count from its loop body on.
		if k := len(c.regions) - 1; k >= 0 && c.regions[k].loop == n {
			c.regions[k].writes = true
		}
		c.loopBody(n.Body, "'for'")
		c.pop()
	case *testlang.WhileStmt:
		c.checkExpr(n.Cond)
		c.loopBody(n.Body, "'while'")
	case *testlang.ReturnStmt:
		if c.inDirective {
			c.errorf(n.Pos(), "cannot return from %s region", c.pers.Dialect)
		}
		if n.X != nil {
			c.checkExpr(n.X)
		}
	case *testlang.BreakStmt:
		if c.loops == 0 {
			c.errorf(n.Pos(), "'break' statement not in loop or switch statement")
		}
	case *testlang.ContinueStmt:
		if c.loops == 0 {
			c.errorf(n.Pos(), "'continue' statement not in loop statement")
		}
	case *testlang.EmptyStmt:
	case *testlang.DirectiveStmt:
		c.directive(n)
	case *testlang.UnknownPragmaStmt:
		c.warnf(n.Pos(), "ignoring unrecognised #pragma %s", firstWord(n.Raw))
	}
}

// loopBody checks the body of a for or while loop.
func (c *checker) loopBody(s testlang.Stmt, of string) {
	c.loops++
	c.body(s, of)
	c.loops--
}

// body checks the body of an if, else, while, for or directive in a
// scope of its own. A declaration is not a statement in C, so it cannot
// be such a body, as gcc and clang rule; C++ scopes it to the body.
func (c *checker) body(s testlang.Stmt, of string) {
	if d, ok := s.(*testlang.DeclStmt); ok && c.file.Lang == testlang.LangC {
		c.errorf(d.Pos(), "expected a statement: a declaration cannot be the body of %s in C", of)
	}
	c.push()
	c.checkStmt(s)
	c.pop()
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i]
		}
	}
	return s
}

// arrayDims counts the declared array dimensions an expression still
// has: a declared array's own, less one per subscript applied to it.
// Anything else, pointers included, has none.
func (c *checker) arrayDims(e testlang.Expr) int {
	switch n := e.(type) {
	case *testlang.IdentExpr:
		if sym, found := c.lookup(n.Name); found && sym.isArray {
			return sym.dims
		}
	case *testlang.IndexExpr:
		if dims := c.arrayDims(n.X); dims > 0 {
			return dims - 1
		}
	}
	return 0
}

// typeOf infers a light static type for an expression; the bool result
// reports whether the expression denotes an indexable object (array or
// pointer).
func (c *checker) typeOf(e testlang.Expr) (testlang.Type, bool) {
	switch n := e.(type) {
	case *testlang.IdentExpr:
		if sym, ok := c.lookup(n.Name); ok {
			return sym.typ, sym.isArray || sym.typ.Ptr > 0
		}
		if t, ok := builtinConsts[n.Name]; ok {
			return t, t.Ptr > 0
		}
		return testlang.Type{Base: "int"}, false
	case *testlang.IntLitExpr:
		return testlang.Type{Base: "int"}, false
	case *testlang.FloatLitExpr:
		return testlang.Type{Base: "double"}, false
	case *testlang.StringLitExpr:
		return testlang.Type{Base: "char", Ptr: 1}, false
	case *testlang.CharLitExpr:
		return testlang.Type{Base: "char"}, false
	case *testlang.BinaryExpr:
		lt, _ := c.typeOf(n.L)
		rt, _ := c.typeOf(n.R)
		if lt.IsFloat() || rt.IsFloat() {
			return testlang.Type{Base: "double"}, false
		}
		return testlang.Type{Base: "int"}, false
	case *testlang.UnaryExpr:
		if n.Op == "*" {
			t, _ := c.typeOf(n.X)
			if t.Ptr > 0 {
				return testlang.Type{Base: t.Base, Ptr: t.Ptr - 1}, t.Ptr-1 > 0
			}
			return t, false
		}
		if n.Op == "&" {
			t, _ := c.typeOf(n.X)
			return testlang.Type{Base: t.Base, Ptr: t.Ptr + 1}, true
		}
		return c.typeOf(n.X)
	case *testlang.PostfixExpr:
		return c.typeOf(n.X)
	case *testlang.AssignExpr:
		return c.typeOf(n.L)
	case *testlang.CondExpr:
		return c.typeOf(n.Then)
	case *testlang.CallExpr:
		if fd, ok := c.funcs[n.Fun]; ok {
			return fd.Ret, fd.Ret.Ptr > 0
		}
		switch n.Fun {
		case "malloc", "calloc":
			return testlang.Type{Base: "void", Ptr: 1}, true
		case "fabs", "sqrt", "pow", "floor", "ceil", "fmax", "fmin", "sin", "cos", "exp", "log", "fabsf", "sqrtf":
			return testlang.Type{Base: "double"}, false
		}
		return testlang.Type{Base: "int"}, false
	case *testlang.IndexExpr:
		t, _ := c.typeOf(n.X)
		// Indexing a declared array strips one of its dimensions before
		// any pointer level of its element type: for double *rows[2],
		// rows[0] is a double *, still indexable.
		if dims := c.arrayDims(n.X); dims > 0 {
			return t, dims > 1 || t.Ptr > 0
		}
		if t.Ptr > 0 {
			return testlang.Type{Base: t.Base, Ptr: t.Ptr - 1}, t.Ptr-1 > 0
		}
		return t, false
	case *testlang.CastExpr:
		return n.To, n.To.Ptr > 0
	case *testlang.SizeofExpr:
		return testlang.Type{Base: "long"}, false
	case *testlang.InitList:
		return testlang.Type{Base: "int"}, false
	default:
		return testlang.Type{Base: "int"}, false
	}
}

func (c *checker) checkExpr(e testlang.Expr) {
	switch n := e.(type) {
	case nil:
	case *testlang.IdentExpr:
		if sym, ok := c.lookup(n.Name); ok {
			n.Bind = sym.bind
			c.use(n.Name, n.Bind)
			return
		}
		if _, ok := builtinConsts[n.Name]; ok {
			return
		}
		if _, ok := c.funcs[n.Name]; ok {
			return
		}
		c.errorf(n.Pos(), "use of undeclared identifier %q", n.Name)
	case *testlang.BinaryExpr:
		c.checkExpr(n.L)
		c.checkExpr(n.R)
	case *testlang.UnaryExpr:
		if n.Op == "++" || n.Op == "--" || n.Op == "&" {
			c.requireLvalue(n.X)
		}
		if n.Op == "*" {
			if t, _ := c.typeOf(n.X); t.Ptr == 0 {
				c.errorf(n.Pos(), "indirection requires pointer operand")
			}
		}
		c.checkExpr(n.X)
		if n.Op == "++" || n.Op == "--" {
			c.wroteTo(n.X)
		}
	case *testlang.PostfixExpr:
		c.requireLvalue(n.X)
		c.checkExpr(n.X)
		c.wroteTo(n.X)
	case *testlang.AssignExpr:
		c.requireLvalue(n.L)
		c.checkExpr(n.L)
		c.wroteTo(n.L)
		c.checkExpr(n.R)
	case *testlang.CondExpr:
		c.checkExpr(n.Cond)
		c.checkExpr(n.Then)
		c.checkExpr(n.Else)
	case *testlang.CallExpr:
		c.checkCall(n)
	case *testlang.IndexExpr:
		if _, indexable := c.typeOf(n.X); !indexable {
			c.errorf(n.Pos(), "subscripted value is not an array or pointer")
		}
		c.checkExpr(n.X)
		c.checkExpr(n.Index)
	case *testlang.CastExpr:
		c.checkExpr(n.X)
	case *testlang.SizeofExpr:
	case *testlang.InitList:
		for _, el := range n.Elems {
			c.checkExpr(el)
		}
	}
}

func (c *checker) requireLvalue(e testlang.Expr) {
	switch x := e.(type) {
	case *testlang.IdentExpr, *testlang.IndexExpr:
	case *testlang.UnaryExpr:
		if x.Op != "*" {
			c.errorf(x.Pos(), "expression is not assignable")
		}
	default:
		c.errorf(e.Pos(), "expression is not assignable")
	}
}

func (c *checker) checkCall(call *testlang.CallExpr) {
	for _, a := range call.Args {
		c.checkExpr(a)
	}
	if fd, ok := c.funcs[call.Fun]; ok {
		if len(call.Args) != len(fd.Params) {
			c.errorf(call.Pos(), "call to %q with %d argument(s), expected %d",
				call.Fun, len(call.Args), len(fd.Params))
		}
		return
	}
	if sig, ok := builtins[call.Fun]; ok {
		if len(call.Args) < sig.min || (sig.max >= 0 && len(call.Args) > sig.max) {
			c.errorf(call.Pos(), "wrong number of arguments to %q", call.Fun)
		}
		return
	}
	// Implicit function declaration: personality-dependent severity.
	// This is the mechanism by which randomly generated plain-C code
	// (negative-probing issue 3) fails under the strict nvc model but
	// sails through the clang model with a warning.
	if c.implicitWarned[call.Fun] {
		return
	}
	c.implicitWarned[call.Fun] = true
	if c.pers.ImplicitDeclError {
		c.errorf(call.Pos(), "call to undeclared function %q; function calls require a declaration in this language mode", call.Fun)
	} else {
		c.warnf(call.Pos(), "implicit declaration of function %q", call.Fun)
	}
}

package compiler

import (
	"fmt"

	"repro/internal/spec"
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

// symbol is one declared name in a scope.
type symbol struct {
	typ     testlang.Type
	isArray bool
	dims    int
}

type scope struct {
	parent *scope
	vars   map[string]*symbol
}

func (s *scope) lookup(name string) (*symbol, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if sym, ok := cur.vars[name]; ok {
			return sym, true
		}
	}
	return nil, false
}

func (s *scope) declare(name string, sym *symbol) bool {
	if _, exists := s.vars[name]; exists {
		return false
	}
	s.vars[name] = sym
	return true
}

// checker performs semantic analysis over one parsed file.
type checker struct {
	pers    *Personality
	file    *testlang.File
	diags   []Diagnostic
	funcs   map[string]*testlang.FuncDecl
	globals []*testlang.VarDecl
	plans   map[*testlang.DirectiveStmt]*DirPlan
	scope   *scope
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
	// coveredStack holds, per enclosing directive, the set of variable
	// names whose device bounds are known from data clauses. It backs
	// the OpenACC "size of the GPU copy is unknown" restriction.
	coveredStack []map[string]bool
}

// coveredVars collects the clause-covered variable names of a plan.
func coveredVars(plan *DirPlan) map[string]bool {
	out := map[string]bool{}
	for _, op := range plan.Data {
		for _, sec := range op.Sections {
			out[sec.Name] = true
		}
	}
	for _, name := range plan.Private {
		out[name] = true
	}
	for _, name := range plan.FirstPrivate {
		out[name] = true
	}
	for _, red := range plan.Reductions {
		for _, name := range red.Vars {
			out[name] = true
		}
	}
	return out
}

// checkDeviceBounds enforces the OpenACC compiler restriction that a
// heap pointer referenced inside a device compute construct must have
// its bounds known from a data clause on the construct or a lexically
// enclosing construct. Declared arrays have known sizes and are
// implicitly copied; bare pointers without bounds are a hard error on
// real OpenACC compilers ("size of the GPU copy of 'a' is unknown"),
// and that error is what catches many "removed data clause" probes at
// the pipeline's compile stage.
func (c *checker) checkDeviceBounds(ds *testlang.DirectiveStmt) {
	if ds.Body == nil {
		return
	}
	local := map[string]bool{}
	testlang.Walk(ds.Body, func(s testlang.Stmt) bool {
		switch n := s.(type) {
		case *testlang.DeclStmt:
			for _, d := range n.Decls {
				local[d.Name] = true
			}
		case *testlang.ForStmt:
			if init, ok := n.Init.(*testlang.DeclStmt); ok {
				for _, d := range init.Decls {
					local[d.Name] = true
				}
			}
		case *testlang.DirectiveStmt:
			// Nested directives' clauses also provide bounds.
			if plan := c.plans[n]; plan != nil {
				for name := range coveredVars(plan) {
					local[name] = true
				}
			} else if n.Dir != nil {
				for _, cl := range n.Dir.Clauses {
					for _, v := range testlang.ClauseVars(cl.Arg) {
						local[v] = true
					}
				}
			}
		}
		return true
	})
	reported := map[string]bool{}
	testlang.WalkExprs(ds.Body, func(e testlang.Expr) {
		id, ok := e.(*testlang.IdentExpr)
		if !ok || local[id.Name] || reported[id.Name] {
			return
		}
		sym, found := c.scope.lookup(id.Name)
		if !found || sym.isArray || sym.typ.Ptr == 0 {
			return
		}
		for _, covered := range c.coveredStack {
			if covered[id.Name] {
				return
			}
		}
		reported[id.Name] = true
		c.errorf(ds.Dir.Pos(), "Accelerator restriction: size of the GPU copy of %q is unknown", id.Name)
	})
}

func (c *checker) errorf(line int, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) warnf(line int, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Line: line, Warning: true, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) push() { c.scope = &scope{parent: c.scope, vars: map[string]*symbol{}} }
func (c *checker) pop()  { c.scope = c.scope.parent }

// check runs all semantic checks and returns the diagnostics.
func (c *checker) check() []Diagnostic {
	c.funcs = map[string]*testlang.FuncDecl{}
	c.plans = map[*testlang.DirectiveStmt]*DirPlan{}
	c.implicitWarned = map[string]bool{}
	c.scope = &scope{vars: map[string]*symbol{}}

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
			sym := &symbol{typ: n.Type, isArray: len(n.ArrayDims) > 0, dims: len(n.ArrayDims)}
			if !c.scope.declare(n.Name, sym) {
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
	c.curFunc = fd
	c.push()
	for _, p := range fd.Params {
		sym := &symbol{typ: p.Type, isArray: p.Array}
		if p.Array {
			sym.dims = 1
		}
		if p.Name != "" && !c.scope.declare(p.Name, sym) {
			c.errorf(fd.Pos(), "duplicate parameter %q", p.Name)
		}
	}
	c.checkStmt(fd.Body)
	c.pop()
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
			sym := &symbol{typ: d.Type, isArray: len(d.ArrayDims) > 0, dims: len(d.ArrayDims)}
			if !c.scope.declare(d.Name, sym) {
				c.errorf(d.Pos(), "redefinition of %q", d.Name)
			}
		}
	case *testlang.ExprStmt:
		c.checkExpr(n.X)
	case *testlang.IfStmt:
		c.checkExpr(n.Cond)
		c.checkStmt(n.Then)
		c.checkStmt(n.Else)
	case *testlang.ForStmt:
		c.push()
		c.checkStmt(n.Init)
		if n.Cond != nil {
			c.checkExpr(n.Cond)
		}
		if n.Post != nil {
			c.checkExpr(n.Post)
		}
		c.loopBody(n.Body)
		c.pop()
	case *testlang.WhileStmt:
		c.checkExpr(n.Cond)
		c.loopBody(n.Body)
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
		plan := c.validateDirective(n, false)
		c.plans[n] = plan
		if plan != nil {
			c.coveredStack = append(c.coveredStack, coveredVars(plan))
			if plan.Device && c.pers.Dialect == spec.OpenACC {
				c.checkDeviceBounds(n)
			}
		}
		if n.Body != nil {
			wasInside, loops, inDirective := c.directiveDepth, c.loops, c.inDirective
			if plan != nil && plan.Kind.opensComputeRegion() {
				c.directiveDepth++
			}
			c.loops, c.inDirective = 0, true
			c.checkStmt(n.Body)
			c.directiveDepth, c.loops, c.inDirective = wasInside, loops, inDirective
		}
		if plan != nil {
			c.coveredStack = c.coveredStack[:len(c.coveredStack)-1]
		}
	case *testlang.UnknownPragmaStmt:
		c.warnf(n.Pos(), "ignoring unrecognised #pragma %s", firstWord(n.Raw))
	}
}

// loopBody checks the body of a for or while loop.
func (c *checker) loopBody(body testlang.Stmt) {
	c.loops++
	c.checkStmt(body)
	c.loops--
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
		if sym, found := c.scope.lookup(n.Name); found && sym.isArray {
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
		if sym, ok := c.scope.lookup(n.Name); ok {
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
		if _, ok := c.scope.lookup(n.Name); ok {
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
	case *testlang.PostfixExpr:
		c.requireLvalue(n.X)
		c.checkExpr(n.X)
	case *testlang.AssignExpr:
		c.requireLvalue(n.L)
		c.checkExpr(n.L)
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

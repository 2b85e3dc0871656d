package machine

import (
	"strings"

	"repro/internal/compiler"
	"repro/internal/testlang"
)

// Lowering turns a checked program into a tree of Go closures once per
// Run: executing a node never dispatches on its AST type or decodes
// its operator, because lowering made those decisions, once.
//
// Four rules keep the lowered code equivalent to a walk of the AST.
//   - Steps: a statement or an expression takes one step on entry, as
//     a walk would, so Result.Steps and the step-limit trap point
//     follow the AST. Assignment targets (places) and a call's
//     argument list take no step of their own.
//   - Faults: lowering never panics and never traps. A construct that
//     must fault (a missing builtin argument, an invalid assignment
//     target, an undefined function) lowers to a closure that faults
//     when, and only when, it runs.
//   - Sharing: lowered code is immutable once Run starts executing, so
//     concurrent region workers share it. Anything a closure needs
//     per execution lives on the exec, its env, or its stack.
//   - Names: identifiers are still looked up by name through env on
//     every use; lowering resolves operators and call targets, not
//     variables.

type (
	// evalFn evaluates one expression.
	evalFn func(*exec) value
	// execFn executes one statement.
	execFn func(*exec)
	// placeFn resolves an assignment target to its storage.
	placeFn func(*exec) place
)

// program is one object's lowered code.
type program struct {
	// globals declare the file-scope variables, in order.
	globals []execFn
	// main is nil when the object defines no main body.
	main *funcCode
}

// funcCode is one lowered user function. body is set after the
// funcCode enters the lowerer's table, so recursive calls bind to it.
type funcCode struct {
	params []paramCode
	body   execFn
}

type paramCode struct {
	name string
	typ  testlang.Type
	// convert reports whether arguments convert to typ (scalars do,
	// pointers and array parameters keep their value).
	convert bool
}

// lowerer holds the per-run lowering state.
type lowerer struct {
	obj *compiler.Object
	// funcs binds each called user function to its lowered code.
	funcs map[string]*funcCode
}

// lower compiles obj's globals and its main function, with every user
// function main and the globals reach, into closures.
func lower(obj *compiler.Object) *program {
	l := &lowerer{obj: obj, funcs: map[string]*funcCode{}}
	p := &program{globals: make([]execFn, len(obj.Globals))}
	for i, g := range obj.Globals {
		p.globals[i] = l.declare(g)
	}
	if fd := obj.Funcs["main"]; fd != nil && fd.Body != nil {
		p.main = l.function("main", fd)
	}
	return p
}

// function returns the lowered code of a user function, lowering it on
// first use.
func (l *lowerer) function(name string, fd *testlang.FuncDecl) *funcCode {
	if fc, ok := l.funcs[name]; ok {
		return fc
	}
	fc := &funcCode{params: make([]paramCode, len(fd.Params))}
	for i, p := range fd.Params {
		fc.params[i] = paramCode{name: p.Name, typ: p.Type, convert: !p.Array && p.Type.Ptr == 0}
	}
	l.funcs[name] = fc
	fc.body = l.stmt(fd.Body)
	return fc
}

// --- statements -------------------------------------------------------

// nopStmt is an absent statement: it takes no step.
func nopStmt(*exec) {}

// stepStmt is a statement that does nothing but take its step.
func stepStmt(ex *exec) { ex.bud.step() }

func (l *lowerer) stmts(list []testlang.Stmt) []execFn {
	out := make([]execFn, len(list))
	for i, s := range list {
		out[i] = l.stmt(s)
	}
	return out
}

func (l *lowerer) stmt(s testlang.Stmt) execFn {
	switch n := s.(type) {
	case nil:
		return nopStmt
	case *testlang.Block:
		body := l.stmts(n.Stmts)
		if blockDeclares(n) {
			return func(ex *exec) {
				ex.bud.step()
				inner := ex.child(newEnv(ex.env))
				for _, f := range body {
					f(inner)
				}
			}
		}
		return func(ex *exec) {
			ex.bud.step()
			for _, f := range body {
				f(ex)
			}
		}
	case *testlang.DeclStmt:
		decls := make([]execFn, len(n.Decls))
		for i, d := range n.Decls {
			decls[i] = l.declare(d)
		}
		return func(ex *exec) {
			ex.bud.step()
			for _, d := range decls {
				d(ex)
			}
		}
	case *testlang.ExprStmt:
		x := l.expr(n.X)
		return func(ex *exec) {
			ex.bud.step()
			x(ex)
		}
	case *testlang.IfStmt:
		cond, then, els := l.expr(n.Cond), l.stmt(n.Then), l.stmt(n.Else)
		return func(ex *exec) {
			ex.bud.step()
			if cond(ex).truthy() {
				then(ex)
			} else {
				els(ex)
			}
		}
	case *testlang.ForStmt:
		loop := l.forLoop(n)
		return func(ex *exec) {
			ex.bud.step()
			loop.run(ex)
		}
	case *testlang.WhileStmt:
		cond, body := l.expr(n.Cond), l.stmt(n.Body)
		return func(ex *exec) {
			ex.bud.step()
			for cond(ex).truthy() {
				if runBody(ex, body) {
					return
				}
			}
		}
	case *testlang.ReturnStmt:
		if n.X == nil {
			return func(ex *exec) {
				ex.bud.step()
				panic(returnSignal{v: intVal(0)})
			}
		}
		x := l.expr(n.X)
		return func(ex *exec) {
			ex.bud.step()
			panic(returnSignal{v: x(ex)})
		}
	case *testlang.BreakStmt:
		return func(ex *exec) {
			ex.bud.step()
			panic(breakSignal{})
		}
	case *testlang.ContinueStmt:
		return func(ex *exec) {
			ex.bud.step()
			panic(continueSignal{})
		}
	case *testlang.DirectiveStmt:
		d := l.directive(n)
		return func(ex *exec) {
			ex.bud.step()
			d.run(ex)
		}
	default:
		// Empty statements and unknown pragmas (ignored at run time,
		// as a real compiler's codegen would) still cost their step.
		return stepStmt
	}
}

// declare lowers one variable declaration into the current scope.
func (l *lowerer) declare(v *testlang.VarDecl) execFn {
	name := v.Name
	if len(v.ArrayDims) > 0 {
		dims := make([]evalFn, len(v.ArrayDims))
		for i, d := range v.ArrayDims {
			if d != nil {
				dims[i] = l.expr(d)
			}
		}
		var elems []evalFn
		if il, ok := v.Init.(*testlang.InitList); ok {
			elems = l.initElems(il, nil)
		}
		elem := testlang.Type{Base: v.Type.Base}
		return func(ex *exec) {
			ds := make([]int, len(dims))
			for i, f := range dims {
				if f == nil {
					continue
				}
				d := f(ex).asInt()
				if d < 0 || d > 1<<24 {
					panic(trapSignal{kind: "bad-alloc", rc: 1, msg: "array dimension out of range"})
				}
				ds[i] = int(d)
			}
			blk := newArrayBlock(name, elem, ds)
			ex.env.declare(name, refVal(ref{blk: blk, dims: ds}))
			// Initialisers past the array's end are never evaluated.
			for i, f := range elems {
				if i >= len(blk.cells) {
					break
				}
				blk.cells[i] = convertTo(f(ex), blk.elem)
			}
		}
	}
	typ := v.Type
	if v.Init == nil {
		zero := zeroValue(typ)
		return func(ex *exec) { ex.env.declare(name, zero) }
	}
	init := l.expr(v.Init)
	return func(ex *exec) {
		val := convertTo(init(ex), typ)
		if val.k == kRef && typ.Ptr > 0 && !val.b.materialized {
			val.b.materialize(typ)
		}
		ex.env.declare(name, val)
	}
}

// initElems flattens a (possibly nested) brace initialiser into its
// scalar elements in fill order.
func (l *lowerer) initElems(il *testlang.InitList, out []evalFn) []evalFn {
	for _, el := range il.Elems {
		if nested, ok := el.(*testlang.InitList); ok {
			out = l.initElems(nested, out)
			continue
		}
		out = append(out, l.expr(el))
	}
	return out
}

// forLoop is a lowered for statement. Its body is shared by the serial
// loop and by work-shared chunks of a loop directive.
type forLoop struct {
	// scoped: the loop runs in a scope of its own (forScoped).
	scoped bool
	init   execFn
	// cond and post are nil when absent.
	cond evalFn
	post evalFn
	body execFn
}

func (l *lowerer) forLoop(n *testlang.ForStmt) *forLoop {
	f := &forLoop{scoped: forScoped(n), init: l.stmt(n.Init), body: l.stmt(n.Body)}
	if n.Cond != nil {
		f.cond = l.expr(n.Cond)
	}
	if n.Post != nil {
		f.post = l.expr(n.Post)
	}
	return f
}

// run executes the loop; the for statement's own step is the caller's.
func (f *forLoop) run(ex *exec) {
	loopEx := ex
	if f.scoped {
		loopEx = ex.child(newEnv(ex.env))
	}
	f.init(loopEx)
	for {
		if f.cond != nil && !f.cond(loopEx).truthy() {
			return
		}
		if runBody(loopEx, f.body) {
			return
		}
		if f.post != nil {
			f.post(loopEx)
		}
	}
}

// --- expressions ------------------------------------------------------

// constant is an expression whose value lowering already knows.
func constant(v value) evalFn {
	return func(ex *exec) value {
		ex.bud.step()
		return v
	}
}

// evalZero is an absent expression where one is evaluated anyway: it
// steps and yields 0.
func evalZero(ex *exec) value {
	ex.bud.step()
	return intVal(0)
}

func (l *lowerer) exprs(list []testlang.Expr) []evalFn {
	out := make([]evalFn, len(list))
	for i, e := range list {
		out[i] = l.expr(e)
	}
	return out
}

func (l *lowerer) expr(e testlang.Expr) evalFn {
	switch n := e.(type) {
	case nil:
		return evalZero
	case *testlang.IntLitExpr:
		return constant(intVal(n.Value))
	case *testlang.FloatLitExpr:
		return constant(floatVal(n.Value))
	case *testlang.StringLitExpr:
		return constant(strVal(&n.Value))
	case *testlang.CharLitExpr:
		return constant(intVal(int64(n.Value)))
	case *testlang.SizeofExpr:
		return constant(intVal(sizeOf(n.Of)))
	case *testlang.IdentExpr:
		return l.ident(n.Name)
	case *testlang.BinaryExpr:
		return l.binary(n)
	case *testlang.UnaryExpr:
		return l.unary(n)
	case *testlang.PostfixExpr:
		p, d := l.place(n.X), delta(n.Op)
		return func(ex *exec) value {
			ex.bud.step()
			pl := p(ex)
			old := pl.load()
			pl.store(applyDelta(old, d))
			return old
		}
	case *testlang.AssignExpr:
		return l.assign(n)
	case *testlang.CondExpr:
		cond, then, els := l.expr(n.Cond), l.expr(n.Then), l.expr(n.Else)
		return func(ex *exec) value {
			ex.bud.step()
			if cond(ex).truthy() {
				return then(ex)
			}
			return els(ex)
		}
	case *testlang.CallExpr:
		return l.call(n)
	case *testlang.IndexExpr:
		ref := l.chain(n, true)
		return func(ex *exec) value {
			b, off := ref(ex)
			return b.viewOrLoad(off)
		}
	case *testlang.CastExpr:
		x, to := l.expr(n.X), n.To
		if to.Ptr > 0 {
			return func(ex *exec) value {
				ex.bud.step()
				v := x(ex)
				if v.k == kRef && !v.b.materialized {
					v.b.materialize(to)
				}
				return v
			}
		}
		return func(ex *exec) value {
			ex.bud.step()
			return convertTo(x(ex), to)
		}
	case *testlang.InitList:
		if len(n.Elems) == 0 {
			return constant(intVal(0))
		}
		first := l.expr(n.Elems[0])
		return func(ex *exec) value {
			ex.bud.step()
			return first(ex)
		}
	default:
		return constant(intVal(0))
	}
}

// Text of the stdio stream identifiers as printf arguments.
var stderrName, stdoutName = "<stderr>", "<stdout>"

// builtinConst is the value of an identifier the program may use
// without declaring it; a declared variable of the same name shadows
// it.
func builtinConst(name string) (value, bool) {
	switch name {
	case "NULL":
		return nullVal(), true
	case "stderr":
		return strVal(&stderrName), true
	case "stdout":
		return strVal(&stdoutName), true
	case "RAND_MAX":
		return intVal(2147483647), true
	case "EXIT_SUCCESS":
		return intVal(0), true
	case "EXIT_FAILURE":
		return intVal(1), true
	case "acc_device_default", "acc_device_nvidia", "omp_sched_static":
		return intVal(1), true
	case "acc_device_host", "omp_sched_dynamic":
		return intVal(2), true
	}
	return value{}, false
}

func (l *lowerer) ident(name string) evalFn {
	if fallback, ok := builtinConst(name); ok {
		return func(ex *exec) value {
			ex.bud.step()
			if c, ok := ex.env.lookup(name); ok {
				return c.v
			}
			return fallback
		}
	}
	return func(ex *exec) value {
		ex.bud.step()
		if c, ok := ex.env.lookup(name); ok {
			return c.v
		}
		// Sema guarantees this does not happen for compiled programs.
		panic(segfault())
	}
}

// binary lowers a binary operator. The arithmetic and comparison
// operators the corpus's loops spend their time in get int/int and
// float/float fast paths; every other operand pairing (refs, null,
// mixed kinds) and every other operator goes through arith and
// compare, which define the semantics.
func (l *lowerer) binary(n *testlang.BinaryExpr) evalFn {
	x, y, op := l.expr(n.L), l.expr(n.R), n.Op
	switch op {
	case "&&":
		return func(ex *exec) value {
			ex.bud.step()
			if !x(ex).truthy() {
				return intVal(0)
			}
			return boolToInt(y(ex).truthy())
		}
	case "||":
		return func(ex *exec) value {
			ex.bud.step()
			if x(ex).truthy() {
				return intVal(1)
			}
			return boolToInt(y(ex).truthy())
		}
	case "+":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return intVal(a.i + b.i)
			case a.k == kFloat && b.k == kFloat:
				return floatVal(a.f + b.f)
			}
			return arith("+", a, b)
		}
	case "-":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return intVal(a.i - b.i)
			case a.k == kFloat && b.k == kFloat:
				return floatVal(a.f - b.f)
			}
			return arith("-", a, b)
		}
	case "*":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return intVal(a.i * b.i)
			case a.k == kFloat && b.k == kFloat:
				return floatVal(a.f * b.f)
			}
			return arith("*", a, b)
		}
	case "<":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return boolToInt(a.i < b.i)
			case a.k == kFloat && b.k == kFloat:
				return boolToInt(a.f < b.f)
			}
			return compare("<", a, b)
		}
	case "<=":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return boolToInt(a.i <= b.i)
			case a.k == kFloat && b.k == kFloat:
				return boolToInt(a.f <= b.f)
			}
			return compare("<=", a, b)
		}
	case ">":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return boolToInt(a.i > b.i)
			case a.k == kFloat && b.k == kFloat:
				return boolToInt(a.f > b.f)
			}
			return compare(">", a, b)
		}
	case ">=":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return boolToInt(a.i >= b.i)
			case a.k == kFloat && b.k == kFloat:
				return boolToInt(a.f >= b.f)
			}
			return compare(">=", a, b)
		}
	case "==":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return boolToInt(a.i == b.i)
			case a.k == kFloat && b.k == kFloat:
				return boolToInt(a.f == b.f)
			}
			return compare("==", a, b)
		}
	case "!=":
		return func(ex *exec) value {
			ex.bud.step()
			a, b := x(ex), y(ex)
			switch {
			case a.k == kInt && b.k == kInt:
				return boolToInt(a.i != b.i)
			case a.k == kFloat && b.k == kFloat:
				return boolToInt(a.f != b.f)
			}
			return compare("!=", a, b)
		}
	}
	return func(ex *exec) value {
		ex.bud.step()
		a, b := x(ex), y(ex)
		return arith(op, a, b)
	}
}

func (l *lowerer) unary(n *testlang.UnaryExpr) evalFn {
	switch n.Op {
	case "*":
		p := l.deref(n.X)
		return func(ex *exec) value {
			ex.bud.step()
			return p(ex).load()
		}
	case "&":
		return l.addressOf(n.X)
	case "++", "--":
		p, d := l.place(n.X), delta(n.Op)
		return func(ex *exec) value {
			ex.bud.step()
			pl := p(ex)
			nv := applyDelta(pl.load(), d)
			pl.store(nv)
			return nv
		}
	}
	x := l.expr(n.X)
	switch n.Op {
	case "!":
		return func(ex *exec) value {
			ex.bud.step()
			return boolToInt(!x(ex).truthy())
		}
	case "-":
		return func(ex *exec) value {
			ex.bud.step()
			v := x(ex)
			if v.k == kFloat {
				return floatVal(-v.f)
			}
			return intVal(-v.asInt())
		}
	case "~":
		return func(ex *exec) value {
			ex.bud.step()
			return intVal(^x(ex).asInt())
		}
	}
	return func(ex *exec) value {
		ex.bud.step()
		return x(ex)
	}
}

// addressOf lowers &x, the & node's own step included.
func (l *lowerer) addressOf(e testlang.Expr) evalFn {
	switch t := e.(type) {
	case *testlang.IndexExpr:
		ref := l.chain(t, false)
		return func(ex *exec) value {
			ex.bud.step()
			b, off := ref(ex)
			return elemRef(b.b, off)
		}
	case *testlang.IdentExpr:
		x, name := l.ident(t.Name), t.Name
		return func(ex *exec) value {
			ex.bud.step()
			v := x(ex)
			if v.k == kRef {
				return v
			}
			// Address of a scalar: a one-cell alias block. Writes
			// through the alias do not propagate back to the
			// variable; the corpus does not use scalar aliasing, and
			// probed files that do get deterministic (if not
			// bit-faithful) behaviour.
			blk := &block{cells: []value{v}, materialized: true, name: name}
			return elemRef(blk, 0)
		}
	}
	return constant(nullVal())
}

// place lowers an assignment target. Resolving a place takes no step
// of its own: the assignment, increment or dereference that needs it
// already took one.
func (l *lowerer) place(e testlang.Expr) placeFn {
	switch n := e.(type) {
	case *testlang.IdentExpr:
		name := n.Name
		return func(ex *exec) place {
			if c, ok := ex.env.lookup(name); ok {
				return place{c: c}
			}
			panic(segfault())
		}
	case *testlang.IndexExpr:
		ref := l.chain(n, false)
		return func(ex *exec) place {
			b, off := ref(ex)
			if b.viewRank() > 1 {
				panic(ex.pointerFault()) // assigning to a whole row
			}
			return place{blk: b.b, off: off}
		}
	case *testlang.UnaryExpr:
		if n.Op == "*" {
			return l.deref(n.X)
		}
	}
	return func(*exec) place { panic(segfault()) }
}

// deref lowers the place *x.
func (l *lowerer) deref(x testlang.Expr) placeFn {
	ptr := l.expr(x)
	return func(ex *exec) place {
		v := ptr(ex)
		if v.k != kRef || v.b == nil || v.b.freed {
			panic(ex.pointerFault())
		}
		if !v.b.materialized {
			v.b.materialize(testlang.Type{Base: "int"})
		}
		if v.i < 0 || v.i >= int64(len(v.b.cells)) {
			panic(ex.pointerFault())
		}
		return place{blk: v.b, off: int(v.i)}
	}
}

// chain lowers a fused a[i][k]... chain to a function returning the
// ref its outermost index applies to and the element offset. Every
// index node of the chain that steps does so before the base is
// evaluated, as a walk of the nested IndexExprs would: all of them
// where the chain is a value, all but the outermost where it is a
// place or an address.
func (l *lowerer) chain(n *testlang.IndexExpr, rvalue bool) func(*exec) (value, int) {
	var nodes []*testlang.IndexExpr
	var e testlang.Expr = n
	for {
		ix, ok := e.(*testlang.IndexExpr)
		if !ok {
			break
		}
		nodes = append(nodes, ix)
		e = ix.X
	}
	base, idx := l.expr(e), make([]evalFn, len(nodes))
	for i, ix := range nodes {
		idx[len(nodes)-1-i] = l.expr(ix.Index)
	}
	steps := len(nodes) - 1
	if rvalue {
		steps++
	}
	return func(ex *exec) (value, int) {
		for i := 0; i < steps; i++ {
			ex.bud.step()
		}
		v := base(ex)
		last := len(idx) - 1
		for _, ix := range idx[:last] {
			b, off := ex.index(v, ix)
			v = b.viewOrLoad(off)
		}
		return ex.index(v, idx[last])
	}
}

// assign lowers =, and the compound assignments through arith.
func (l *lowerer) assign(n *testlang.AssignExpr) evalFn {
	p, r := l.place(n.L), l.expr(n.R)
	switch n.Op {
	case "=":
		return func(ex *exec) value {
			ex.bud.step()
			pl := p(ex)
			rhs := r(ex)
			out := coerceLike(pl.load(), rhs)
			pl.store(out)
			return out
		}
	case "+=":
		return func(ex *exec) value {
			ex.bud.step()
			pl := p(ex)
			rhs := r(ex)
			cur := pl.load()
			var out value
			switch {
			case cur.k == kInt && rhs.k == kInt:
				out = intVal(cur.i + rhs.i)
			case cur.k == kFloat && rhs.k == kFloat:
				out = floatVal(cur.f + rhs.f)
			default:
				out = arith("+", cur, rhs)
			}
			pl.store(out)
			return out
		}
	}
	op := strings.TrimSuffix(n.Op, "=")
	return func(ex *exec) value {
		ex.bud.step()
		pl := p(ex)
		rhs := r(ex)
		out := arith(op, pl.load(), rhs)
		pl.store(out)
		return out
	}
}

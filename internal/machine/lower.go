package machine

import (
	"strings"

	"repro/internal/compiler"
	"repro/internal/testlang"
)

// Lowering turns a checked program into a tree of Go closures once per
// Run: executing a node never dispatches on its AST type, decodes its
// operator or compares a variable's name, because lowering made those
// decisions, once.
//
// Six rules keep the lowered code equivalent to a walk of the AST.
//   - Steps: a statement or an expression takes one step on entry, as
//     a walk would, so Result.Steps and the step-limit trap point
//     follow the AST. Assignment targets (places) and a call's
//     argument list take no step of their own.
//   - Faults: lowering never panics and never traps. A construct that
//     must fault (a missing builtin argument, an invalid assignment
//     target, an undefined function, a function used as a value)
//     lowers to a closure that faults when, and only when, it runs.
//   - Sharing: lowered code is immutable once Run starts executing, so
//     every region worker, and every fork of a nested region, runs the
//     same closures. Anything a closure needs per execution lives on
//     the exec, its frame, or its stack.
//   - Names: lowering keeps no scopes. The checker bound every use to
//     its declaration with C's scoping (testlang.Binding), and lowering
//     gives each use one slot of its function's frame (varRef), so
//     nothing compares a name at run time: a function's declaration n
//     owns slot n, and each global the function uses gets an alias slot
//     after those, filled from the globals at call time. C rejects a
//     declaration as the bare body of an if, while, for or directive,
//     and C++ scopes it to that body, so a use always follows the run of
//     the declaration it binds. The checker also decides, by binding,
//     what a directive's body takes from outside (compiler.DirPlan's
//     Free and PlainWrites), and lowering resolves those lists to slots.
//   - Loop kernels: every expression runs through its generic closure,
//     where arith, compare and coerceLike define each operator, except
//     in a loop kernel. A for statement in canonical form
//     (compiler.Object.Loops) whose body is straight-line arithmetic
//     also gets a kernel (kernel.go): on each entry, a serial loop's
//     after its init or a work-shared chunk's, it resolves the body's
//     operands once, and runs the iterations as one Go loop and takes
//     every step the generic closures would, only when its checks show
//     that they would neither fault, leave the kinds the declarations
//     give nor run out of steps; otherwise the generic closures run the
//     loop from its start.
//   - Flow: a statement returns how it ended (flow), and the block,
//     loop or call around it acts on that; nothing unwinds by panic
//     but a trap or exit(). The compiler rejects a break or continue
//     with no loop between it and its function or directive body, and
//     a return inside a directive body, so a function body ends only
//     with flowNext or flowReturn and a directive body only with
//     flowNext: region code ignores what a body returns, except that a
//     break ends a work-shared chunk (runChunk).

type (
	// evalFn evaluates one expression.
	evalFn func(*exec) value
	// execFn executes one statement and returns how it ended.
	execFn func(*exec) flow
	// placeFn resolves an assignment target to its storage.
	placeFn func(*exec) place
)

// flow is how a statement ended: by running to its end, or by a break,
// continue or return that the enclosing loop or call acts on.
type flow uint8

const (
	flowNext flow = iota
	flowBreak
	flowContinue
	flowReturn
)

// program is one object's lowered code.
type program struct {
	// globals declare the file-scope variables, in order, into a frame
	// of one slot each.
	globals []func(*exec)
	// main is nil when the object defines no main body.
	main *funcCode
}

// funcCode is one lowered user function. body and aliases are set
// after the funcCode enters the lowerer's table, so recursive calls
// bind to it.
type funcCode struct {
	// params are the function's declarations 0 to len(params)-1.
	params []paramCode
	body   execFn
	// slots is the size of the function's frame: one slot per
	// declaration, then one per alias.
	slots int
	// aliases fill the slots of the globals the function uses.
	aliases []globalAlias
}

type paramCode struct {
	typ testlang.Type
	// conv converts arguments to typ (scalars convert, pointers and
	// array parameters keep their value).
	conv conv
}

// globalAlias is a function's slot for a global: the call copies the
// global's cell into it, so a region's overlay on the global in the
// caller stays invisible to the callee.
type globalAlias struct {
	slot   varRef
	global int
}

// varRef is a resolved variable: the frame slot that holds its cell,
// or -1 for a name that binds no variable (a builtin constant, or a
// function used as a value).
type varRef int

// cellOf returns the cell r names in ex's frame, or nil.
func (ex *exec) cellOf(r varRef) *cell {
	if r < 0 {
		return nil
	}
	return ex.frame[r]
}

// rebind makes r name c in ex's frame, which the caller owns (fork).
func (ex *exec) rebind(r varRef, c *cell) {
	if r >= 0 {
		ex.frame[r] = c
	}
}

// lowerer holds the per-run lowering state.
type lowerer struct {
	obj *compiler.Object
	// funcs binds each called user function to its lowered code.
	funcs map[string]*funcCode
	// fn is the function being lowered, nil for global initializers.
	fn *funcCode
	// types holds the declared type of each local of fn lowered so far,
	// by local number (declared).
	types []declType
	// kernels is unset only when a test lowers without loop kernels.
	kernels bool
}

// lower compiles obj's globals and its main function, with every user
// function main and the globals reach, into closures; a counted loop of
// straight-line arithmetic also gets a kernel when kernels is set.
func lower(obj *compiler.Object, kernels bool) *program {
	l := &lowerer{obj: obj, funcs: map[string]*funcCode{}, kernels: kernels}
	p := &program{globals: make([]func(*exec), len(obj.Globals))}
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
	fc := &funcCode{params: make([]paramCode, len(fd.Params)), slots: fd.Locals}
	l.funcs[name] = fc
	fn, types := l.fn, l.types
	l.fn, l.types = fc, make([]declType, fd.Locals)
	for i, p := range fd.Params {
		c := convOf(p.Type)
		if p.Array {
			c = convKeep
		}
		fc.params[i] = paramCode{typ: p.Type, conv: c}
		l.types[i] = declType{p.Type, p.Array}
	}
	fc.body = l.stmt(fd.Body)
	l.fn, l.types = fn, types
	return fc
}

// --- names ------------------------------------------------------------

// slot is the frame slot of the variable b binds: a local's own, a
// global's in the frame of the globals or, inside a function, the
// alias slot the function fills from it at each call.
func (l *lowerer) slot(b testlang.Binding) varRef {
	if n, ok := b.Local(); ok {
		return varRef(n)
	}
	g, ok := b.Global()
	switch {
	case !ok:
		return -1
	case l.fn == nil:
		return varRef(g)
	}
	for _, a := range l.fn.aliases {
		if a.global == g {
			return a.slot
		}
	}
	a := globalAlias{slot: varRef(l.fn.slots), global: g}
	l.fn.slots++
	l.fn.aliases = append(l.fn.aliases, a)
	return a.slot
}

// --- statements -------------------------------------------------------

// nopStmt is an absent statement: it takes no step.
func nopStmt(*exec) flow { return flowNext }

// stepStmt is a statement that does nothing but take its step.
func stepStmt(ex *exec) flow {
	ex.in.step()
	return flowNext
}

// runStmts runs a block's statements in order until one ends other
// than by running to its end, and returns how the block ended.
func runStmts(ex *exec, body []execFn) flow {
	for _, f := range body {
		if fl := f(ex); fl != flowNext {
			return fl
		}
	}
	return flowNext
}

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
		return func(ex *exec) flow {
			ex.in.step()
			return runStmts(ex, body)
		}
	case *testlang.DeclStmt:
		decls := make([]func(*exec), len(n.Decls))
		for i, d := range n.Decls {
			decls[i] = l.declare(d)
		}
		return func(ex *exec) flow {
			ex.in.step()
			for _, d := range decls {
				d(ex)
			}
			return flowNext
		}
	case *testlang.ExprStmt:
		x := l.expr(n.X)
		return func(ex *exec) flow {
			ex.in.step()
			x(ex)
			return flowNext
		}
	case *testlang.IfStmt:
		cond := l.expr(n.Cond)
		then, els := l.stmt(n.Then), l.stmt(n.Else)
		return func(ex *exec) flow {
			ex.in.step()
			if cond(ex).truthy() {
				return then(ex)
			}
			return els(ex)
		}
	case *testlang.ForStmt:
		loop := l.forLoop(n, -1)
		return func(ex *exec) flow {
			ex.in.step()
			return loop.run(ex)
		}
	case *testlang.WhileStmt:
		cond, body := l.expr(n.Cond), l.stmt(n.Body)
		return func(ex *exec) flow {
			ex.in.step()
			for cond(ex).truthy() {
				switch body(ex) {
				case flowBreak:
					return flowNext
				case flowReturn:
					return flowReturn
				}
			}
			return flowNext
		}
	case *testlang.ReturnStmt:
		// A call's ret starts as int 0, the value of a bare return.
		if n.X == nil {
			return func(ex *exec) flow {
				ex.in.step()
				return flowReturn
			}
		}
		x := l.expr(n.X)
		return func(ex *exec) flow {
			ex.in.step()
			ex.ret = x(ex)
			return flowReturn
		}
	case *testlang.BreakStmt:
		return func(ex *exec) flow {
			ex.in.step()
			return flowBreak
		}
	case *testlang.ContinueStmt:
		return func(ex *exec) flow {
			ex.in.step()
			return flowContinue
		}
	case *testlang.DirectiveStmt:
		d := l.directive(n)
		return func(ex *exec) flow {
			ex.in.step()
			d.run(ex)
			return flowNext
		}
	default:
		// Empty statements, unknown pragmas (ignored at run time, as a
		// real compiler's codegen would) and statements of a kind
		// lowering does not know still cost their step.
		return stepStmt
	}
}

// declare lowers one variable declaration, which fills its own slot.
func (l *lowerer) declare(v *testlang.VarDecl) func(*exec) {
	name, slot := v.Name, l.slot(v.Bind)
	if n, local := v.Bind.Local(); local && n < len(l.types) {
		l.types[n] = declType{v.Type, len(v.ArrayDims) > 0}
	}
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
			blk := newArrayBlock(name, v.Type, ds)
			ex.own(slot).v = refVal(ref{blk: blk, dims: ds})
			// Initialisers past the array's end are never evaluated.
			for i, f := range elems {
				if i >= blk.length() {
					break
				}
				blk.set(i, f(ex))
			}
		}
	}
	typ := v.Type
	if v.Init == nil {
		zero := zeroValue(typ)
		return func(ex *exec) { ex.own(slot).v = zero }
	}
	init, cv := l.expr(v.Init), convOf(typ)
	pointee := testlang.Type{Base: typ.Base, Ptr: typ.Ptr - 1}
	return func(ex *exec) {
		val := cv.apply(init(ex))
		if val.k == kRef && typ.Ptr > 0 && !val.b.materialized {
			val.b.materialize(pointee)
		}
		ex.own(slot).v = val
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
	init execFn
	// cond and post are nil when absent.
	cond evalFn
	post evalFn
	body execFn
	// iv is a loop directive's variable as the body sees it, which a
	// work-shared chunk binds to a cell of its own.
	iv varRef
	// kern is the loop's kernel, nil when it has none.
	kern *kernel
}

// forLoop lowers a for statement; iv is a loop directive's variable,
// -1 for a plain for.
func (l *lowerer) forLoop(n *testlang.ForStmt, iv varRef) *forLoop {
	f := &forLoop{init: l.stmt(n.Init), iv: iv}
	if n.Cond != nil {
		f.cond = l.expr(n.Cond)
	}
	if n.Post != nil {
		f.post = l.expr(n.Post)
	}
	f.body = l.stmt(n.Body)
	if form := l.obj.Loops[n]; form != nil && l.kernels {
		f.kern = l.kernel(n, form)
	}
	return f
}

// run executes the loop and returns how it ended; the for statement's
// own step is the caller's.
func (f *forLoop) run(ex *exec) flow {
	f.init(ex)
	if f.kern != nil && f.kern.serial(ex) {
		return flowNext
	}
	for {
		if f.cond != nil && !f.cond(ex).truthy() {
			return flowNext
		}
		// A break ends the loop, a return the loop and the call.
		switch f.body(ex) {
		case flowBreak:
			return flowNext
		case flowReturn:
			return flowReturn
		}
		if f.post != nil {
			f.post(ex)
		}
	}
}

// --- expressions ------------------------------------------------------

// constant is an expression whose value lowering already knows.
func constant(v value) evalFn {
	return func(ex *exec) value {
		ex.in.step()
		return v
	}
}

// evalZero is an absent expression where one is evaluated anyway: it
// steps and yields 0.
func evalZero(ex *exec) value {
	ex.in.step()
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
		// char is signed, as on gcc's x86 targets: '\xff' is -1.
		return constant(intVal(int64(int8(n.Value))))
	case *testlang.SizeofExpr:
		return constant(intVal(sizeOf(n.Of)))
	case *testlang.IdentExpr:
		return identAt(n.Name, l.slot(n.Bind))
	case *testlang.BinaryExpr:
		return l.binary(n)
	case *testlang.UnaryExpr:
		return l.unary(n)
	case *testlang.PostfixExpr:
		p, d := l.place(n.X), delta(n.Op)
		return func(ex *exec) value {
			ex.in.step()
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
			ex.in.step()
			if cond(ex).truthy() {
				return then(ex)
			}
			return els(ex)
		}
	case *testlang.CallExpr:
		return l.call(n)
	case *testlang.IndexExpr:
		walk := l.chain(n, true)
		return func(ex *exec) value {
			b, off := walk(ex)
			return b.viewOrLoad(off)
		}
	case *testlang.CastExpr:
		x, to := l.expr(n.X), n.To
		if to.Ptr > 0 {
			pointee := testlang.Type{Base: to.Base, Ptr: to.Ptr - 1}
			return func(ex *exec) value {
				ex.in.step()
				v := x(ex)
				if v.k == kRef && !v.b.materialized {
					v.b.materialize(pointee)
				}
				return v
			}
		}
		cv := convOf(to)
		return func(ex *exec) value {
			ex.in.step()
			return cv.apply(x(ex))
		}
	case *testlang.InitList:
		if len(n.Elems) == 0 {
			return constant(intVal(0))
		}
		first := l.expr(n.Elems[0])
		return func(ex *exec) value {
			ex.in.step()
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

// identAt lowers a read of name, resolved to r. A name that binds no
// variable is a builtin constant or a function, which has no value
// here; a variable whose slot is empty is a global read by a function
// that a global initializer called before the global's declaration
// ran. Both fault.
func identAt(name string, r varRef) evalFn {
	if r < 0 {
		if v, ok := builtinConst(name); ok {
			return constant(v)
		}
		return func(ex *exec) value {
			ex.in.step()
			panic(segfault())
		}
	}
	return func(ex *exec) value {
		ex.in.step()
		if c := ex.frame[r]; c != nil {
			return c.v
		}
		panic(segfault())
	}
}

// binary lowers a binary operator: && and || short-circuit, the
// comparisons go through compare and every other operator through
// arith, which define the semantics for every pairing of operand kinds.
func (l *lowerer) binary(n *testlang.BinaryExpr) evalFn {
	x, y, op := l.expr(n.L), l.expr(n.R), n.Op
	switch op {
	case "&&":
		return func(ex *exec) value {
			ex.in.step()
			if !x(ex).truthy() {
				return intVal(0)
			}
			return boolToInt(y(ex).truthy())
		}
	case "||":
		return func(ex *exec) value {
			ex.in.step()
			if x(ex).truthy() {
				return intVal(1)
			}
			return boolToInt(y(ex).truthy())
		}
	case "<", "<=", ">", ">=", "==", "!=":
		return func(ex *exec) value {
			ex.in.step()
			a, b := x(ex), y(ex)
			return compare(op, a, b)
		}
	}
	return func(ex *exec) value {
		ex.in.step()
		a, b := x(ex), y(ex)
		return arith(op, a, b)
	}
}

func (l *lowerer) unary(n *testlang.UnaryExpr) evalFn {
	switch n.Op {
	case "*":
		p := l.deref(n.X)
		return func(ex *exec) value {
			ex.in.step()
			return p(ex).load()
		}
	case "&":
		return l.addressOf(n.X)
	case "++", "--":
		p, d := l.place(n.X), delta(n.Op)
		return func(ex *exec) value {
			ex.in.step()
			pl := p(ex)
			return pl.store(applyDelta(pl.load(), d))
		}
	}
	x := l.expr(n.X)
	switch n.Op {
	case "!":
		return func(ex *exec) value {
			ex.in.step()
			return boolToInt(!x(ex).truthy())
		}
	case "-":
		return func(ex *exec) value {
			ex.in.step()
			v := x(ex)
			if v.k == kFloat {
				return floatVal(-v.f())
			}
			return intVal(-v.asInt())
		}
	case "~":
		return func(ex *exec) value {
			ex.in.step()
			return intVal(^x(ex).asInt())
		}
	}
	return func(ex *exec) value {
		ex.in.step()
		return x(ex)
	}
}

// addressOf lowers &x, the & node's own step included.
func (l *lowerer) addressOf(e testlang.Expr) evalFn {
	switch t := e.(type) {
	case *testlang.IndexExpr:
		walk := l.chain(t, false)
		return func(ex *exec) value {
			ex.in.step()
			b, off := walk(ex)
			return elemRef(b.b, off)
		}
	case *testlang.IdentExpr:
		x, name := identAt(t.Name, l.slot(t.Bind)), t.Name
		return func(ex *exec) value {
			ex.in.step()
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
		if r := l.slot(n.Bind); r >= 0 {
			cv := l.scalarConv(n)
			return func(ex *exec) place {
				if c := ex.frame[r]; c != nil {
					return place{c: c, conv: cv}
				}
				panic(segfault())
			}
		}
	case *testlang.IndexExpr:
		walk := l.chain(n, false)
		return func(ex *exec) place {
			b, off := walk(ex)
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

// scalarConv is the conversion a store into e takes when e names a
// scalar variable: to its declared type. Anything else keeps the value
// (convKeep), and a cell then converts as coerceLike does.
func (l *lowerer) scalarConv(e testlang.Expr) conv {
	if id, ok := e.(*testlang.IdentExpr); ok {
		if t, ok := l.declared(id.Bind); ok && !t.array {
			return convOf(t.typ)
		}
	}
	return convKeep
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
		if v.i < 0 || v.i >= int64(v.b.length()) {
			panic(ex.pointerFault())
		}
		return place{blk: v.b, off: int(v.i)}
	}
}

// chain lowers an a[i][k]... chain to a walk that returns the ref its
// outermost index applies to and the element offset. Every index node
// of the chain that steps does so before the base is evaluated, as a
// walk of the nested IndexExprs would: all of them where the chain is a
// value, all but the outermost where it is a place or an address.
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
	base := l.expr(e)
	idx := make([]evalFn, len(nodes))
	for i, ix := range nodes {
		idx[len(nodes)-1-i] = l.expr(ix.Index)
	}
	steps := len(nodes) - 1
	if rvalue {
		steps++
	}
	return func(ex *exec) (value, int) {
		for i := 0; i < steps; i++ {
			ex.in.step()
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
			ex.in.step()
			pl := p(ex)
			rhs := r(ex)
			return pl.store(coerceLike(pl.load(), rhs))
		}
	}
	op := strings.TrimSuffix(n.Op, "=")
	return func(ex *exec) value {
		ex.in.step()
		pl := p(ex)
		rhs := r(ex)
		return pl.store(arith(op, pl.load(), rhs))
	}
}

// chainView returns the block, element offset and view dimensions of
// v when a chain of n indices applied to it would end on an element of
// a live, sized block without materializing it: v is a ref and the
// view's rank is exactly consumed, every index but the last selecting a
// row and the last an element. Loop kernels resolve a chain only
// through it.
func chainView(v value, n int) (blk *block, off int, dims []int, ok bool) {
	if v.k != kRef {
		return nil, 0, nil, false
	}
	blk, off = v.b, int(v.i)
	if blk == nil || blk.freed || !blk.materialized {
		return nil, 0, nil, false
	}
	dims = blk.dims[v.d:]
	if len(dims) != n && (n > 1 || len(dims) > 1) {
		return nil, 0, nil, false
	}
	return blk, off, dims, true
}

package machine

import (
	"repro/internal/testlang"
)

// exec is one thread of interpretation: shared interpreter state plus
// the local environment and region context.
type exec struct {
	in  *interp
	env *env
	// bud is the step budget of the goroutine running this exec;
	// children and callees share it.
	bud *budget
	// inDevice is true inside a device compute region (affects fault
	// flavour and nested construct behaviour).
	inDevice bool
	// workerID / regionWidth implement omp_get_thread_num and friends.
	workerID    int
	regionWidth int
	// redundant is true inside a region whose body every worker
	// executes (omp parallel); false inside a distributed loop, where
	// each worker runs a different slice of iterations. Nested loop
	// directives work-share only in redundant regions.
	redundant bool
	// callDepth guards against runaway recursion.
	callDepth int
}

// child returns an exec sharing everything but using a nested scope.
func (ex *exec) child(e *env) *exec {
	c := *ex
	c.env = e
	return &c
}

// place is an assignable storage location.
type place interface {
	load() value
	store(v value)
}

type cellPlace struct{ c *cell }

func (p cellPlace) load() value   { return p.c.v }
func (p cellPlace) store(v value) { p.c.v = v }

type elemPlace struct {
	blk *block
	off int
}

func (p elemPlace) load() value { return p.blk.cells[p.off] }
func (p elemPlace) store(v value) {
	p.blk.cells[p.off] = convertTo(v, p.blk.elem)
}

// declareVar evaluates a declaration into the given scope.
func (ex *exec) declareVar(v *testlang.VarDecl, into *env) {
	if len(v.ArrayDims) > 0 {
		dims := make([]int, len(v.ArrayDims))
		for i, dimExpr := range v.ArrayDims {
			if dimExpr == nil {
				dims[i] = 0
				continue
			}
			d := ex.eval(dimExpr).asInt()
			if d < 0 || d > 1<<24 {
				panic(trapSignal{kind: "bad-alloc", rc: 1, msg: "array dimension out of range"})
			}
			dims[i] = int(d)
		}
		blk := newArrayBlock(v.Name, testlang.Type{Base: v.Type.Base}, dims)
		into.declare(v.Name, refVal(ref{blk: blk, dims: dims}))
		if il, ok := v.Init.(*testlang.InitList); ok {
			ex.fillInitList(blk, il)
		}
		return
	}
	var init value
	if v.Init != nil {
		init = convertTo(ex.eval(v.Init), v.Type)
		if init.k == kRef && v.Type.Ptr > 0 && !init.b.materialized {
			init.b.materialize(v.Type)
		}
	} else {
		init = zeroValue(v.Type)
	}
	into.declare(v.Name, init)
}

// fillInitList writes a (possibly nested) brace initialiser into a
// freshly allocated array block.
func (ex *exec) fillInitList(blk *block, il *testlang.InitList) {
	pos := 0
	var fill func(il *testlang.InitList)
	fill = func(il *testlang.InitList) {
		for _, el := range il.Elems {
			if nested, ok := el.(*testlang.InitList); ok {
				fill(nested)
				continue
			}
			if pos < len(blk.cells) {
				blk.cells[pos] = convertTo(ex.eval(el), blk.elem)
				pos++
			}
		}
	}
	fill(il)
}

// execStmt interprets one statement.
func (ex *exec) execStmt(s testlang.Stmt) {
	if s == nil {
		return
	}
	ex.bud.step()
	switch n := s.(type) {
	case *testlang.Block:
		inner := ex
		if blockDeclares(n) {
			inner = ex.child(newEnv(ex.env))
		}
		for _, st := range n.Stmts {
			inner.execStmt(st)
		}
	case *testlang.DeclStmt:
		for _, d := range n.Decls {
			ex.declareVar(d, ex.env)
		}
	case *testlang.ExprStmt:
		ex.eval(n.X)
	case *testlang.EmptyStmt:
	case *testlang.IfStmt:
		if ex.eval(n.Cond).truthy() {
			ex.execStmt(n.Then)
		} else {
			ex.execStmt(n.Else)
		}
	case *testlang.ForStmt:
		ex.execFor(n)
	case *testlang.WhileStmt:
		ex.execWhile(n)
	case *testlang.ReturnStmt:
		var v value
		if n.X != nil {
			v = ex.eval(n.X)
		} else {
			v = intVal(0)
		}
		panic(returnSignal{v: v})
	case *testlang.BreakStmt:
		panic(breakSignal{})
	case *testlang.ContinueStmt:
		panic(continueSignal{})
	case *testlang.DirectiveStmt:
		ex.execDirective(n)
	case *testlang.UnknownPragmaStmt:
		// Ignored at run time, as a real compiler's codegen would.
	}
}

// runBody executes one loop iteration, absorbing continue and
// reporting break.
func (ex *exec) runBody(body testlang.Stmt) (brk bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case continueSignal:
		case breakSignal:
			brk = true
		default:
			panic(r)
		}
	}()
	ex.execStmt(body)
	return false
}

// blockDeclares reports whether a block declares into its own scope.
// Blocks that declare nothing run in the enclosing scope, which saves
// a scope allocation on most loop-body iterations.
func blockDeclares(b *testlang.Block) bool {
	for _, st := range b.Stmts {
		if declaresInto(st) {
			return true
		}
	}
	return false
}

// declaresInto reports whether executing s can declare a name into
// the scope s runs in. Only a DeclStmt declares into ex.env; if,
// while, directives and a for without a declaring init run their
// bodies in the same scope and so pass the question on, while a block
// or a for with a declaring init decides for a scope of its own.
// Directive bodies are passed on conservatively: extra scopes are
// always safe, missing ones are not.
func declaresInto(s testlang.Stmt) bool {
	switch n := s.(type) {
	case *testlang.DeclStmt:
		return true
	case *testlang.IfStmt:
		return declaresInto(n.Then) || declaresInto(n.Else)
	case *testlang.WhileStmt:
		return declaresInto(n.Body)
	case *testlang.ForStmt:
		return !forScoped(n) && declaresInto(n.Body)
	case *testlang.DirectiveStmt:
		return declaresInto(n.Body)
	}
	return false
}

// forScoped reports whether a for loop needs a scope of its own: its
// init or its (non-block) body declares.
func forScoped(n *testlang.ForStmt) bool {
	if _, ok := n.Init.(*testlang.DeclStmt); ok {
		return true
	}
	return declaresInto(n.Body)
}

func (ex *exec) execFor(n *testlang.ForStmt) {
	loopEx := ex
	if forScoped(n) {
		loopEx = ex.child(newEnv(ex.env))
	}
	loopEx.execStmt(n.Init)
	for {
		if n.Cond != nil && !loopEx.eval(n.Cond).truthy() {
			return
		}
		if loopEx.runBody(n.Body) {
			return
		}
		if n.Post != nil {
			loopEx.eval(n.Post)
		}
	}
}

func (ex *exec) execWhile(n *testlang.WhileStmt) {
	for ex.eval(n.Cond).truthy() {
		if ex.runBody(n.Body) {
			return
		}
	}
}

// eval evaluates an expression to a value.
func (ex *exec) eval(e testlang.Expr) value {
	ex.bud.step()
	switch n := e.(type) {
	case nil:
		return intVal(0)
	case *testlang.IntLitExpr:
		return intVal(n.Value)
	case *testlang.FloatLitExpr:
		return floatVal(n.Value)
	case *testlang.StringLitExpr:
		return strVal(&n.Value)
	case *testlang.CharLitExpr:
		return intVal(int64(n.Value))
	case *testlang.IdentExpr:
		return ex.evalIdent(n)
	case *testlang.BinaryExpr:
		return ex.evalBinary(n)
	case *testlang.UnaryExpr:
		return ex.evalUnary(n)
	case *testlang.PostfixExpr:
		p := ex.lvalue(n.X)
		old := p.load()
		p.store(applyDelta(old, n.Op))
		return old
	case *testlang.AssignExpr:
		return ex.evalAssign(n)
	case *testlang.CondExpr:
		if ex.eval(n.Cond).truthy() {
			return ex.eval(n.Then)
		}
		return ex.eval(n.Else)
	case *testlang.CallExpr:
		return ex.evalCall(n)
	case *testlang.IndexExpr:
		return ex.indexPlaceOrView(n)
	case *testlang.CastExpr:
		v := ex.eval(n.X)
		if n.To.Ptr > 0 {
			if v.k == kRef && !v.b.materialized {
				v.b.materialize(n.To)
			}
			return v
		}
		return convertTo(v, n.To)
	case *testlang.SizeofExpr:
		return intVal(sizeOf(n.Of))
	case *testlang.InitList:
		if len(n.Elems) > 0 {
			return ex.eval(n.Elems[0])
		}
		return intVal(0)
	default:
		return intVal(0)
	}
}

// Text of the stdio stream identifiers as printf arguments.
var stderrName, stdoutName = "<stderr>", "<stdout>"

func (ex *exec) evalIdent(n *testlang.IdentExpr) value {
	if c, ok := ex.env.lookup(n.Name); ok {
		return c.v
	}
	switch n.Name {
	case "NULL":
		return nullVal()
	case "stderr":
		return strVal(&stderrName)
	case "stdout":
		return strVal(&stdoutName)
	case "RAND_MAX":
		return intVal(2147483647)
	case "EXIT_SUCCESS":
		return intVal(0)
	case "EXIT_FAILURE":
		return intVal(1)
	case "acc_device_default", "acc_device_nvidia", "omp_sched_static":
		return intVal(1)
	case "acc_device_host", "omp_sched_dynamic":
		return intVal(2)
	}
	// Sema guarantees this does not happen for compiled programs.
	panic(segfault())
}

// resolveIndex computes the ref value and element offset for one
// index step, trapping on null, freed, or out-of-range accesses.
func (ex *exec) resolveIndex(n *testlang.IndexExpr) (base value, off int) {
	base = ex.eval(n.X)
	idx := int(ex.eval(n.Index).asInt())
	blk := base.b
	if base.k != kRef || blk == nil || blk.freed {
		panic(ex.pointerFault())
	}
	if !blk.materialized {
		blk.materialize(testlang.Type{Base: "int"})
	}
	if dims := blk.dims[base.d:]; len(dims) > 1 {
		stride := 1
		for _, d := range dims[1:] {
			stride *= d
		}
		if idx < 0 || idx >= dims[0] {
			panic(ex.pointerFault())
		}
		return base, int(base.i) + idx*stride
	}
	o := int(base.i) + idx
	if o < 0 || o >= len(blk.cells) {
		panic(ex.pointerFault())
	}
	return base, o
}

// viewRank is the number of view dimensions left on a ref value.
func (v value) viewRank() int { return len(v.b.dims) - int(v.d) }

// indexPlaceOrView evaluates an index expression: an inner index of a
// multi-dimensional array yields a sub-view ref; a final index yields
// the element value.
func (ex *exec) indexPlaceOrView(n *testlang.IndexExpr) value {
	base, off := ex.resolveIndex(n)
	if base.viewRank() > 1 {
		return value{k: kRef, b: base.b, i: int64(off), d: base.d + 1}
	}
	return base.b.cells[off]
}

// lvalue resolves an expression to its storage place.
func (ex *exec) lvalue(e testlang.Expr) place {
	switch n := e.(type) {
	case *testlang.IdentExpr:
		if c, ok := ex.env.lookup(n.Name); ok {
			return cellPlace{c}
		}
		panic(segfault())
	case *testlang.IndexExpr:
		base, off := ex.resolveIndex(n)
		if base.viewRank() > 1 {
			panic(ex.pointerFault()) // assigning to a whole row
		}
		return elemPlace{blk: base.b, off: off}
	case *testlang.UnaryExpr:
		if n.Op == "*" {
			v := ex.eval(n.X)
			if v.k != kRef || v.b == nil || v.b.freed {
				panic(ex.pointerFault())
			}
			if !v.b.materialized {
				v.b.materialize(testlang.Type{Base: "int"})
			}
			if v.i < 0 || v.i >= int64(len(v.b.cells)) {
				panic(ex.pointerFault())
			}
			return elemPlace{blk: v.b, off: int(v.i)}
		}
	}
	panic(segfault())
}

func (ex *exec) pointerFault() trapSignal {
	if ex.inDevice {
		return illegalDeviceAccess()
	}
	return segfault()
}

func (ex *exec) evalAssign(n *testlang.AssignExpr) value {
	p := ex.lvalue(n.L)
	rhs := ex.eval(n.R)
	var out value
	if n.Op == "=" {
		out = coerceLike(p.load(), rhs)
	} else {
		out = arith(n.Op[:1], p.load(), rhs)
	}
	p.store(out)
	return out
}

// coerceLike keeps the static flavour of the destination when it is
// numeric, so "int x; x = 1.9" truncates, while pointer stores keep
// refs.
func coerceLike(dst, v value) value {
	switch dst.k {
	case kFloat:
		return floatVal(v.asFloat())
	case kInt:
		if v.k == kFloat {
			return intVal(int64(v.f))
		}
		if v.k == kRef || v.k == kNull {
			return v
		}
		return intVal(v.asInt())
	default:
		return v
	}
}

func applyDelta(v value, op string) value {
	d := int64(1)
	if op == "--" {
		d = -1
	}
	if v.k == kFloat {
		return floatVal(v.f + float64(d))
	}
	if v.k == kRef {
		v.i += d
		return v
	}
	return intVal(v.i + d)
}

func (ex *exec) evalUnary(n *testlang.UnaryExpr) value {
	switch n.Op {
	case "!":
		return boolToInt(!ex.eval(n.X).truthy())
	case "-":
		v := ex.eval(n.X)
		if v.k == kFloat {
			return floatVal(-v.f)
		}
		return intVal(-v.asInt())
	case "~":
		return intVal(^ex.eval(n.X).asInt())
	case "*":
		return ex.lvalue(n).load()
	case "&":
		return ex.addressOf(n.X)
	case "++", "--":
		p := ex.lvalue(n.X)
		nv := applyDelta(p.load(), n.Op)
		p.store(nv)
		return nv
	default:
		return ex.eval(n.X)
	}
}

func (ex *exec) addressOf(e testlang.Expr) value {
	switch t := e.(type) {
	case *testlang.IndexExpr:
		base, off := ex.resolveIndex(t)
		return elemRef(base.b, off)
	case *testlang.IdentExpr:
		v := ex.eval(t)
		if v.k == kRef {
			return v
		}
		// Address of a scalar: a one-cell alias block. Writes through
		// the alias do not propagate back to the variable; the corpus
		// does not use scalar aliasing, and probed files that do get
		// deterministic (if not bit-faithful) behaviour.
		blk := &block{cells: []value{v}, materialized: true, name: t.Name}
		return elemRef(blk, 0)
	default:
		return nullVal()
	}
}

func (ex *exec) evalBinary(n *testlang.BinaryExpr) value {
	switch n.Op {
	case "&&":
		if !ex.eval(n.L).truthy() {
			return intVal(0)
		}
		return boolToInt(ex.eval(n.R).truthy())
	case "||":
		if ex.eval(n.L).truthy() {
			return intVal(1)
		}
		return boolToInt(ex.eval(n.R).truthy())
	}
	l := ex.eval(n.L)
	r := ex.eval(n.R)
	switch n.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		return compare(n.Op, l, r)
	default:
		return arith(n.Op, l, r)
	}
}

func compare(op string, l, r value) value {
	if l.k == kRef || r.k == kRef || l.k == kNull || r.k == kNull {
		eq := pointerEqual(l, r)
		switch op {
		case "==":
			return boolToInt(eq)
		case "!=":
			return boolToInt(!eq)
		default:
			return intVal(0)
		}
	}
	if l.k == kFloat || r.k == kFloat {
		a, b := l.asFloat(), r.asFloat()
		switch op {
		case "==":
			return boolToInt(a == b)
		case "!=":
			return boolToInt(a != b)
		case "<":
			return boolToInt(a < b)
		case "<=":
			return boolToInt(a <= b)
		case ">":
			return boolToInt(a > b)
		default:
			return boolToInt(a >= b)
		}
	}
	a, b := l.asInt(), r.asInt()
	switch op {
	case "==":
		return boolToInt(a == b)
	case "!=":
		return boolToInt(a != b)
	case "<":
		return boolToInt(a < b)
	case "<=":
		return boolToInt(a <= b)
	case ">":
		return boolToInt(a > b)
	default:
		return boolToInt(a >= b)
	}
}

func pointerEqual(l, r value) bool {
	ln := l.k == kNull || (l.k == kInt && l.i == 0)
	rn := r.k == kNull || (r.k == kInt && r.i == 0)
	if ln || rn {
		return ln && rn
	}
	if l.k == kRef && r.k == kRef {
		return l.b == r.b && l.i == r.i
	}
	return false
}

func boolToInt(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func arith(op string, l, r value) value {
	if l.k == kRef && (op == "+" || op == "-") {
		d := r.asInt()
		if op == "-" {
			d = -d
		}
		l.i += d
		return l
	}
	if r.k == kRef && op == "+" {
		r.i += l.asInt()
		return r
	}
	if l.k == kFloat || r.k == kFloat {
		a, b := l.asFloat(), r.asFloat()
		switch op {
		case "+":
			return floatVal(a + b)
		case "-":
			return floatVal(a - b)
		case "*":
			return floatVal(a * b)
		case "/":
			return floatVal(a / b)
		default:
			return floatVal(0)
		}
	}
	a, b := l.asInt(), r.asInt()
	switch op {
	case "+":
		return intVal(a + b)
	case "-":
		return intVal(a - b)
	case "*":
		return intVal(a * b)
	case "/":
		if b == 0 {
			panic(fpeFault())
		}
		return intVal(a / b)
	case "%":
		if b == 0 {
			panic(fpeFault())
		}
		return intVal(a % b)
	case "&":
		return intVal(a & b)
	case "|":
		return intVal(a | b)
	case "^":
		return intVal(a ^ b)
	case "<<":
		return intVal(a << uint(b&63))
	case ">>":
		return intVal(a >> uint(b&63))
	}
	return intVal(0)
}

// callFunction invokes a user function with already-evaluated args.
func (ex *exec) callFunction(fd *testlang.FuncDecl, args []value) value {
	if ex.callDepth > 2000 {
		panic(segfault()) // stack overflow
	}
	fnEnv := newEnv(ex.in.globals)
	for i, p := range fd.Params {
		var v value
		if i < len(args) {
			v = args[i]
			if !p.Array && p.Type.Ptr == 0 {
				v = convertTo(v, p.Type)
			}
		} else {
			v = zeroValue(p.Type)
		}
		fnEnv.declare(p.Name, v)
	}
	callee := &exec{
		in:          ex.in,
		env:         fnEnv,
		bud:         ex.bud,
		inDevice:    ex.inDevice,
		workerID:    ex.workerID,
		regionWidth: ex.regionWidth,
		callDepth:   ex.callDepth + 1,
	}
	return runWithReturn(callee, fd.Body)
}

func runWithReturn(ex *exec, body *testlang.Block) (ret value) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case returnSignal:
			ret = r.v
		default:
			panic(r)
		}
	}()
	ex.execStmt(body)
	return intVal(0)
}

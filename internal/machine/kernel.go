package machine

import (
	"math"

	"repro/internal/compiler"
	"repro/internal/testlang"
)

// A loop kernel runs a counted loop whose body is straight-line
// arithmetic as one Go loop. Lowering builds it next to the loop's
// generic closures, from the loop's canonical form (compiler.LoopForm)
// and typed closures over its body: the kind of every operand is the
// one its declaration gives. On each entry, a serial loop's or a
// work-shared chunk's, the kernel resolves every scalar and array the
// body names once, into the run's kstate, and runs only when that
// shows the generic walk of the whole loop would take the same path:
//
//   - every operand has the kind its declaration gives, so each node
//     takes the int or float case of arith or compare that the typed
//     closure copies, or arith's int→float promotion;
//   - no index, checked at the first and last iteration, leaves its
//     dimension or its block: an index is a leaf or leaf ± literal
//     whose variable is the loop's or one the body never writes, so an
//     element's offset is affine in the loop variable and its extremes
//     are at the ends;
//   - the step budget covers every iteration taking its most steps.
//
// It then charges exactly the steps the walk would have taken. When a
// check fails it takes nothing and changes nothing, and the generic
// closures run the loop from its start: they stay the one definition
// of its semantics, faults and step-limit trap point.
type kernel struct {
	// iv is the loop variable's slot; the body reads it (kstate.iv) and
	// never writes it.
	iv varRef
	// op compares the variable, on its left, with bound. The variable
	// steps by sign*stride.
	op            string
	bound, stride term
	sign          int64
	// condSteps and postSteps are the steps one evaluation of the
	// condition and of the increment take.
	condSteps, postSteps int64
	// scalars are the variables the body reads or writes, bound and
	// stride included; ints and floats count their registers.
	scalars      []kscalar
	ints, floats int
	// elems are the body's index chains, each an array access.
	elems []kaccess
	// body runs one iteration. steps is what it takes outside its if
	// branches, most the largest it can take with them.
	body        func(*kstate)
	steps, most int64
}

// kscalar is a scalar the kernel holds in a register of its kind.
type kscalar struct {
	slot  varRef
	float bool
	// conv narrows a store into an int scalar to its declared type.
	conv    conv
	reg     int
	written bool
	// term is set when an index, the bound or the stride reads it, temp
	// when the body declares it.
	term, temp bool
}

// kaccess is an index chain: the array in slot base, indexed by idx,
// whose elements conv stores.
type kaccess struct {
	base varRef
	idx  []term
	conv conv
}

// term is an index, bound or stride: an int leaf plus a literal add,
// the leaf being scalar reg, the loop variable (iv) or none (reg < 0).
type term struct {
	reg   int
	iv    bool
	add   int64
	steps int64
}

// kstate is one kernel entry's resolved operands. A run has one, as
// kernels never nest and a run's workers run one after another.
type kstate struct {
	iv     int64
	ints   []int64
	floats []float64
	cells  []*cell
	elems  []kelem
	// extra counts the steps of the if branches taken.
	extra int64
}

// kelem is an access resolved: its element at loop variable v is
// nums[off+coef*v].
type kelem struct {
	nums      []int64
	off, coef int64
}

// kernelLimit bounds the magnitude of every int a kernel's offsets and
// trip count are computed from, so no product or sum of them overflows.
const kernelLimit = 1 << 31

// --- lowering -------------------------------------------------------------

// kval is a lowered kernel expression: f when its kind is float, i when
// it is int. lit is set for an int literal.
type kval struct {
	f     func(*kstate) float64
	i     func(*kstate) int64
	steps int64
	lit   *int64
}

// asFloat is v's value converted as value.asFloat does.
func (v kval) asFloat() func(*kstate) float64 {
	if v.f != nil {
		return v.f
	}
	i := v.i
	return func(s *kstate) float64 { return float64(i(s)) }
}

// kbuild is the state of lowering one kernel.
type kbuild struct {
	l *lowerer
	// k is the kernel being built, which escapes only once it qualifies.
	k kernel
}

// scalar returns the index of the kernel's scalar in slot r.
func (b *kbuild) scalar(r varRef) (int, bool) {
	for i, s := range b.k.scalars {
		if s.slot == r {
			return i, true
		}
	}
	return 0, false
}

// kernel lowers fs, whose canonical form is form, to a kernel, or
// returns nil when its shape does not qualify.
func (l *lowerer) kernel(fs *testlang.ForStmt, form *compiler.LoopForm) *kernel {
	iv := l.slot(form.Var.Bind)
	// A char or bool loop variable would wrap where the kernel's trip
	// count does not.
	if t, ok := l.declared(form.Var.Bind); !ok || iv < 0 || t.array || t.typ.Ptr > 0 || convOf(t.typ) != convInt && convOf(t.typ) != convLong {
		return nil
	}
	b := &kbuild{l: l, k: kernel{iv: iv, op: form.Op, sign: form.Sign}}
	k := &b.k
	var ok bool
	if k.bound, ok = b.term(form.Bound, false); !ok {
		return nil
	}
	k.stride = term{reg: -1, add: 1}
	if form.Step != nil {
		if k.stride, ok = b.term(form.Step, false); !ok {
			return nil
		}
	}
	// The condition is the comparison, the variable and the bound; the
	// increment its operator, and an assignment of a sum the sum and the
	// variable too.
	k.condSteps = 2 + k.bound.steps
	switch post := fs.Post.(type) {
	case *testlang.AssignExpr:
		k.postSteps = 1 + k.stride.steps
		if post.Op == "=" {
			k.postSteps += 2
		}
	default:
		k.postSteps = 1
	}
	if k.body, k.steps, k.most, ok = b.stmt(fs.Body); !ok {
		return nil
	}
	for _, s := range k.scalars {
		if s.written && s.term {
			return nil
		}
	}
	out := *k
	return &out
}

// declType is a variable's declared type, and whether it is an array.
type declType struct {
	typ   testlang.Type
	array bool
}

// declared returns the declared type of the variable b binds.
func (l *lowerer) declared(b testlang.Binding) (declType, bool) {
	if g, ok := b.Global(); ok {
		v := l.obj.Globals[g]
		return declType{v.Type, len(v.ArrayDims) > 0}, true
	}
	if n, ok := b.Local(); ok && n < len(l.types) {
		t := l.types[n]
		return t, t.typ.Base != ""
	}
	return declType{}, false
}

// reg returns the kernel's scalar for the variable id names, adding it
// on first use; ok is false when id names no numeric scalar.
func (b *kbuild) reg(id *testlang.IdentExpr) (int, bool) {
	r := b.l.slot(id.Bind)
	if n, ok := b.scalar(r); ok {
		return n, true
	}
	t, ok := b.l.declared(id.Bind)
	if !ok || r < 0 || r == b.k.iv || t.array || t.typ.Ptr > 0 || convOf(t.typ) == convKeep {
		return 0, false
	}
	s := kscalar{slot: r, float: t.typ.IsFloat(), conv: convOf(t.typ)}
	if s.float {
		s.reg, b.k.floats = b.k.floats, b.k.floats+1
	} else {
		s.reg, b.k.ints = b.k.ints, b.k.ints+1
	}
	b.k.scalars = append(b.k.scalars, s)
	return len(b.k.scalars) - 1, true
}

// isIV reports whether e reads the loop variable.
func (b *kbuild) isIV(e testlang.Expr) bool {
	id, ok := e.(*testlang.IdentExpr)
	return ok && b.l.slot(id.Bind) == b.k.iv
}

// term lowers an index, bound or stride: a constant, a variable, or a
// variable plus or minus a constant, the constant being int literals
// combined by + - * / % (N / 2 once N is substituted). The variable is
// an int scalar the body must not write, or the loop variable when iv
// is set.
func (b *kbuild) term(e testlang.Expr, iv bool) (term, bool) {
	if c, steps, ok := constInt(e); ok {
		return term{reg: -1, add: c, steps: steps}, inLimit(c)
	}
	n, isSum := e.(*testlang.BinaryExpr)
	if !isSum || n.Op != "+" && n.Op != "-" {
		return b.leafTerm(e, iv)
	}
	x, y := n.L, n.R
	if _, _, ok := constInt(x); ok && n.Op == "+" {
		x, y = y, x
	}
	t, ok := b.leafTerm(x, iv)
	c, steps, isConst := constInt(y)
	if !ok || !isConst || !inLimit(c) {
		return term{}, false
	}
	if n.Op == "-" {
		c = -c
	}
	t.add, t.steps = c, 2+steps
	return t, true
}

// leafTerm lowers a term that is a variable alone.
func (b *kbuild) leafTerm(e testlang.Expr, iv bool) (term, bool) {
	id, ok := e.(*testlang.IdentExpr)
	switch {
	case !ok:
		return term{}, false
	case b.isIV(id):
		return term{reg: -1, iv: true, steps: 1}, iv
	}
	r, ok := b.reg(id)
	if !ok || b.k.scalars[r].float {
		return term{}, false
	}
	b.k.scalars[r].term = true
	return term{reg: r, steps: 1}, true
}

// constInt folds an expression of int literals and + - * / %, as arith
// computes it, and counts its steps; ok is false for anything else,
// and for a division by zero, which faults.
func constInt(e testlang.Expr) (v, steps int64, ok bool) {
	switch n := e.(type) {
	case *testlang.IntLitExpr:
		return n.Value, 1, true
	case *testlang.BinaryExpr:
		x, xs, okx := constInt(n.L)
		y, ys, oky := constInt(n.R)
		if !okx || !oky {
			return 0, 0, false
		}
		steps = 1 + xs + ys
		switch n.Op {
		case "+":
			return x + y, steps, true
		case "-":
			return x - y, steps, true
		case "*":
			return x * y, steps, true
		case "/":
			if y != 0 {
				return x / y, steps, true
			}
		case "%":
			if y != 0 {
				return x % y, steps, true
			}
		}
	}
	return 0, 0, false
}

// stmt lowers a body statement: steps is what it takes outside its if
// branches, most the largest it can take.
func (b *kbuild) stmt(s testlang.Stmt) (run func(*kstate), steps, most int64, ok bool) {
	switch n := s.(type) {
	case *testlang.Block:
		var runs []func(*kstate)
		steps, most = 1, 1
		for _, st := range n.Stmts {
			f, s1, m1, ok := b.stmt(st)
			if !ok {
				return nil, 0, 0, false
			}
			runs, steps, most = append(runs, f), steps+s1, most+m1
		}
		return sequence(runs), steps, most, true
	case *testlang.ExprStmt:
		f, s1, ok := b.effect(n.X)
		return f, 1 + s1, 1 + s1, ok
	case *testlang.DeclStmt:
		var runs []func(*kstate)
		steps = 1
		for _, d := range n.Decls {
			f, s1, ok := b.declare(d)
			if !ok {
				return nil, 0, 0, false
			}
			runs, steps = append(runs, f), steps+s1
		}
		return sequence(runs), steps, steps, true
	case *testlang.IfStmt:
		cond, ok := b.test(n.Cond)
		if !ok {
			return nil, 0, 0, false
		}
		then, ts, tm, ok := b.stmt(n.Then)
		if !ok {
			return nil, 0, 0, false
		}
		els, es, em := sequence(nil), int64(0), int64(0)
		if n.Else != nil {
			if els, es, em, ok = b.stmt(n.Else); !ok {
				return nil, 0, 0, false
			}
		}
		steps = 1 + cond.steps
		return func(s *kstate) {
			if cond.test(s) {
				s.extra += ts
				then(s)
			} else {
				s.extra += es
				els(s)
			}
		}, steps, steps + max(tm, em), true
	}
	return nil, 0, 0, false
}

// sequence runs fs in order.
func sequence(fs []func(*kstate)) func(*kstate) {
	switch len(fs) {
	case 0:
		return func(*kstate) {}
	case 1:
		return fs[0]
	}
	return func(s *kstate) {
		for _, f := range fs {
			f(s)
		}
	}
}

// ktest is a lowered condition.
type ktest struct {
	test  func(*kstate) bool
	steps int64
}

// test lowers an if condition: a comparison, or any kernel expression
// taken as C truth.
func (b *kbuild) test(e testlang.Expr) (ktest, bool) {
	if n, ok := e.(*testlang.BinaryExpr); ok {
		switch n.Op {
		case "<", "<=", ">", ">=", "==", "!=":
			x, okx := b.expr(n.L)
			y, oky := b.expr(n.R)
			if !okx || !oky {
				return ktest{}, false
			}
			return ktest{compareK(n.Op, x, y), 1 + x.steps + y.steps}, true
		}
	}
	v, ok := b.expr(e)
	if !ok {
		return ktest{}, false
	}
	if f := v.f; f != nil {
		return ktest{func(s *kstate) bool { return f(s) != 0 }, v.steps}, true
	}
	i := v.i
	return ktest{func(s *kstate) bool { return i(s) != 0 }, v.steps}, true
}

// declare lowers the declaration of a numeric scalar in the body, which
// converts its initializer, if any, to the scalar's type. Its register
// is a temporary: every run of the body declares the scalar before it
// reads it, and its scope has ended when the loop does, so the kernel
// neither loads it nor writes it back.
func (b *kbuild) declare(v *testlang.VarDecl) (func(*kstate), int64, bool) {
	r := b.l.slot(v.Bind)
	c := convOf(v.Type)
	if _, seen := b.scalar(r); seen || r < 0 || len(v.ArrayDims) > 0 || v.Type.Ptr > 0 || c == convKeep {
		return nil, 0, false
	}
	init := kval{i: func(*kstate) int64 { return 0 }}
	if v.Init != nil {
		var ok bool
		if init, ok = b.expr(v.Init); !ok {
			return nil, 0, false
		}
	}
	sc := kscalar{slot: r, float: c == convFloat, conv: c, written: true, temp: true}
	if sc.float {
		sc.reg, b.k.floats = b.k.floats, b.k.floats+1
		reg, x := sc.reg, init.asFloat()
		b.k.scalars = append(b.k.scalars, sc)
		return func(s *kstate) { s.floats[reg] = x(s) }, init.steps, true
	}
	sc.reg, b.k.ints = b.k.ints, b.k.ints+1
	reg, x := sc.reg, narrowK(c, asIntK(init))
	b.k.scalars = append(b.k.scalars, sc)
	return func(s *kstate) { s.ints[reg] = x(s) }, init.steps, true
}

// effect lowers an expression statement's expression: an assignment
// (=, +=, -=, *=) or an increment of a scalar or an element. It stores
// the right side of =, converted to the target's kind, or the result of
// the operation the compound assignment or increment applies to the
// target's value, as assign, arith and applyDelta compute it.
func (b *kbuild) effect(e testlang.Expr) (func(*kstate), int64, bool) {
	var target, value testlang.Expr
	op := ""
	switch n := e.(type) {
	case *testlang.AssignExpr:
		target, value, op = n.L, n.R, n.Op
	case *testlang.PostfixExpr:
		target, op = n.X, n.Op
	case *testlang.UnaryExpr:
		target, op = n.X, n.Op
	}
	var rhs kval
	switch op {
	case "=", "+=", "-=", "*=":
		var ok bool
		if rhs, ok = b.expr(value); !ok {
			return nil, 0, false
		}
	case "++", "--":
		rhs = constK(1)
		rhs.steps = 0
	default:
		return nil, 0, false
	}
	steps := 1 + rhs.steps
	var cur kval
	var set func(kval) func(*kstate)
	switch t := target.(type) {
	case *testlang.IdentExpr:
		r, ok := b.reg(t)
		if !ok {
			return nil, 0, false
		}
		b.k.scalars[r].written = true
		cur, set = b.scalarVal(r), b.scalarSet(r)
		if op == "+=" && (cur.i == nil || rhs.f == nil) {
			// The loops' hottest statement (s += a[i][k] * b[k][j]) adds
			// in its register, as arith adds for assign's +=.
			return b.scalarAdd(r, rhs), steps, true
		}
	case *testlang.IndexExpr:
		var ok bool
		if cur, set, ok = b.access(t, false); !ok {
			return nil, 0, false
		}
		steps, cur.steps = steps+cur.steps, 0
	default:
		return nil, 0, false
	}
	if op != "=" {
		var ok bool
		if rhs, ok = arithK(op[:1], cur, rhs); !ok {
			return nil, 0, false
		}
	}
	return set(rhs), steps, true
}

// scalarVal is the value of the kernel's scalar r.
func (b *kbuild) scalarVal(r int) kval {
	reg := b.k.scalars[r].reg
	if b.k.scalars[r].float {
		return kval{f: func(s *kstate) float64 { return s.floats[reg] }, steps: 1}
	}
	return kval{i: func(s *kstate) int64 { return s.ints[reg] }, steps: 1}
}

// scalarSet stores a value into the kernel's scalar r, converted to its
// declared type as a store into its cell converts it.
func (b *kbuild) scalarSet(r int) func(kval) func(*kstate) {
	sc := b.k.scalars[r]
	reg := sc.reg
	if sc.float {
		return func(v kval) func(*kstate) {
			x := v.asFloat()
			return func(s *kstate) { s.floats[reg] = x(s) }
		}
	}
	return func(v kval) func(*kstate) {
		x := narrowK(sc.conv, asIntK(v))
		return func(s *kstate) { s.ints[reg] = x(s) }
	}
}

// scalarAdd adds a value, an int one to an int scalar, to the kernel's
// scalar r, a float one in float.
func (b *kbuild) scalarAdd(r int, v kval) func(*kstate) {
	sc := b.k.scalars[r]
	reg := sc.reg
	if sc.float {
		x := v.asFloat()
		return func(s *kstate) { s.floats[reg] = float64(s.floats[reg] + x(s)) }
	}
	x := v.i
	if c := sc.conv; c != convLong {
		return func(s *kstate) { s.ints[reg] = c.narrow(s.ints[reg] + x(s)) }
	}
	return func(s *kstate) { s.ints[reg] += x(s) }
}

// access lowers an index chain over a numeric array to a kernel access:
// the value of its element, with the steps of the chain as a value
// (rvalue) or as a place, and what stores a value into the element,
// through the block's conv as block.set does.
func (b *kbuild) access(n *testlang.IndexExpr, rvalue bool) (val kval, set func(kval) func(*kstate), ok bool) {
	depth := 0
	var e testlang.Expr = n
	for ix, isIndex := e.(*testlang.IndexExpr); isIndex; ix, isIndex = e.(*testlang.IndexExpr) {
		depth, e = depth+1, ix.X
	}
	// The indices, outermost last.
	idx := make([]term, depth)
	steps := int64(0)
	for i, e := depth-1, testlang.Expr(n); i >= 0; i-- {
		ix := e.(*testlang.IndexExpr)
		t, ok := b.term(ix.Index, true)
		if !ok {
			return kval{}, nil, false
		}
		idx[i], steps, e = t, steps+t.steps, ix.X
	}
	id, isIdent := e.(*testlang.IdentExpr)
	if !isIdent {
		return kval{}, nil, false
	}
	base := b.l.slot(id.Bind)
	t, declared := b.l.declared(id.Bind)
	elem := t.typ
	if !t.array {
		elem.Ptr--
	}
	c := convOf(elem)
	if !declared || base < 0 || elem.Ptr < 0 || c == convKeep {
		return kval{}, nil, false
	}
	// The chain's nodes but the outermost step as a place, all of them as
	// a value; then the base.
	steps += int64(len(idx)) + 1
	if !rvalue {
		steps--
	}
	a := len(b.k.elems)
	b.k.elems = append(b.k.elems, kaccess{base: base, idx: idx, conv: c})
	if c == convFloat {
		return kval{f: func(s *kstate) float64 {
				e := &s.elems[a]
				return math.Float64frombits(uint64(e.nums[e.off+e.coef*s.iv]))
			}, steps: steps}, func(v kval) func(*kstate) {
				x := v.asFloat()
				return func(s *kstate) {
					e := &s.elems[a]
					e.nums[e.off+e.coef*s.iv] = int64(math.Float64bits(x(s)))
				}
			}, true
	}
	return kval{i: func(s *kstate) int64 {
			e := &s.elems[a]
			return e.nums[e.off+e.coef*s.iv]
		}, steps: steps}, func(v kval) func(*kstate) {
			x := asIntK(v)
			return func(s *kstate) {
				e := &s.elems[a]
				e.nums[e.off+e.coef*s.iv] = c.narrow(x(s))
			}
		}, true
}

// expr lowers a right-hand side: leaves, literals, + - * / %, unary -,
// comparisons, fabs and sqrt, casts to scalar types and index chains.
func (b *kbuild) expr(e testlang.Expr) (kval, bool) {
	switch n := e.(type) {
	case *testlang.IntLitExpr:
		return constK(n.Value), true
	case *testlang.CharLitExpr:
		return constK(int64(int8(n.Value))), true
	case *testlang.FloatLitExpr:
		v := n.Value
		return kval{f: func(*kstate) float64 { return v }, steps: 1}, true
	case *testlang.IdentExpr:
		if b.isIV(n) {
			return kval{i: func(s *kstate) int64 { return s.iv }, steps: 1}, true
		}
		r, ok := b.reg(n)
		if !ok {
			return kval{}, false
		}
		return b.scalarVal(r), true
	case *testlang.IndexExpr:
		v, _, ok := b.access(n, true)
		return v, ok
	case *testlang.UnaryExpr:
		x, ok := b.expr(n.X)
		if !ok || n.Op != "-" {
			return kval{}, false
		}
		if f := x.f; f != nil {
			return kval{f: func(s *kstate) float64 { return -f(s) }, steps: 1 + x.steps}, true
		}
		i := x.i
		return kval{i: func(s *kstate) int64 { return -i(s) }, steps: 1 + x.steps}, true
	case *testlang.CastExpr:
		x, ok := b.expr(n.X)
		c := convOf(n.To)
		if !ok || n.To.Ptr > 0 || c == convKeep {
			return kval{}, false
		}
		if c == convFloat {
			return kval{f: x.asFloat(), steps: 1 + x.steps}, true
		}
		return kval{i: narrowK(c, asIntK(x)), steps: 1 + x.steps}, true
	case *testlang.CallExpr:
		var f func(float64) float64
		switch n.Fun {
		case "fabs", "fabsf":
			f = math.Abs
		case "sqrt", "sqrtf":
			f = math.Sqrt
		}
		if fd, user := b.l.obj.Funcs[n.Fun]; f == nil || len(n.Args) != 1 || user && fd.Body != nil {
			return kval{}, false
		}
		x, ok := b.expr(n.Args[0])
		if !ok {
			return kval{}, false
		}
		xf := x.asFloat()
		return kval{f: func(s *kstate) float64 { return f(xf(s)) }, steps: 1 + x.steps}, true
	case *testlang.BinaryExpr:
		x, okx := b.expr(n.L)
		y, oky := b.expr(n.R)
		if !okx || !oky {
			return kval{}, false
		}
		steps := 1 + x.steps + y.steps
		switch n.Op {
		case "<", "<=", ">", ">=", "==", "!=":
			test := compareK(n.Op, x, y)
			return kval{i: func(s *kstate) int64 {
				if test(s) {
					return 1
				}
				return 0
			}, steps: steps}, true
		}
		v, ok := arithK(n.Op, x, y)
		v.steps = steps
		return v, ok
	}
	return kval{}, false
}

// constK is an int literal.
func constK(v int64) kval {
	return kval{i: func(*kstate) int64 { return v }, steps: 1, lit: &v}
}

// arithK is arith over two kernel values: int when both are, else
// float.
func arithK(op string, x, y kval) (kval, bool) {
	if x.i != nil && y.i != nil {
		i, ok := arithInt(op, x.i, y.i, y.lit)
		return kval{i: i}, ok
	}
	f, ok := arithFloat(op, x.asFloat(), y.asFloat())
	return kval{f: f}, ok
}

// asIntK is v's value converted as value.asInt does.
func asIntK(v kval) func(*kstate) int64 {
	if v.i != nil {
		return v.i
	}
	f := v.f
	return func(s *kstate) int64 { return int64(f(s)) }
}

// narrowK converts an int as conv c does.
func narrowK(c conv, x func(*kstate) int64) func(*kstate) int64 {
	if c == convLong {
		return x
	}
	return func(s *kstate) int64 { return c.narrow(x(s)) }
}

// arithInt is arith over two ints. A division or remainder must have a
// non-zero literal divisor, so it cannot fault.
func arithInt(op string, x, y func(*kstate) int64, lit *int64) (func(*kstate) int64, bool) {
	switch op {
	case "+":
		return func(s *kstate) int64 { return x(s) + y(s) }, true
	case "-":
		return func(s *kstate) int64 { return x(s) - y(s) }, true
	case "*":
		return func(s *kstate) int64 { return x(s) * y(s) }, true
	case "/":
		if lit != nil && *lit != 0 {
			return func(s *kstate) int64 { return x(s) / y(s) }, true
		}
	case "%":
		if lit != nil && *lit != 0 {
			return func(s *kstate) int64 { return x(s) % y(s) }, true
		}
	}
	return nil, false
}

// arithFloat is arith with a float operand. Each result rounds through
// float64(...), so no operation fuses with the next (Go may fuse a*b+c
// into one FMA on arm64, ppc64le and s390x; the generic closures round
// every node's result into a value).
func arithFloat(op string, x, y func(*kstate) float64) (func(*kstate) float64, bool) {
	switch op {
	case "+":
		return func(s *kstate) float64 { return float64(x(s) + y(s)) }, true
	case "-":
		return func(s *kstate) float64 { return float64(x(s) - y(s)) }, true
	case "*":
		return func(s *kstate) float64 { return float64(x(s) * y(s)) }, true
	case "/":
		return func(s *kstate) float64 { return float64(x(s) / y(s)) }, true
	}
	return nil, false
}

// compareK is compare over two kernel values: as ints when both are,
// else as floats.
func compareK(op string, x, y kval) func(*kstate) bool {
	if x.i != nil && y.i != nil {
		return compareT(op, x.i, y.i)
	}
	return compareT(op, x.asFloat(), y.asFloat())
}

func compareT[T int64 | float64](op string, a, b func(*kstate) T) func(*kstate) bool {
	switch op {
	case "<":
		return func(s *kstate) bool { return a(s) < b(s) }
	case "<=":
		return func(s *kstate) bool { return a(s) <= b(s) }
	case ">":
		return func(s *kstate) bool { return a(s) > b(s) }
	case ">=":
		return func(s *kstate) bool { return a(s) >= b(s) }
	case "==":
		return func(s *kstate) bool { return a(s) == b(s) }
	}
	return func(s *kstate) bool { return a(s) != b(s) }
}

// --- running ----------------------------------------------------------------

// serial runs the loop from the iteration its init left, as forLoop.run
// would: each iteration takes the condition, the body and the
// increment, and the loop ends on one more condition. It reports
// false, having changed nothing, when a check fails.
func (k *kernel) serial(ex *exec) bool {
	c := ex.frame[k.iv]
	if c == nil || c.v.k != kInt {
		return false
	}
	s := &ex.in.kern
	if !k.load(ex, s, c) {
		return false
	}
	v0, bound, st := c.v.i, k.bound.value(s), k.sign*k.stride.value(s)
	if !inLimit(v0) || !inLimit(bound) || !inLimit(st) {
		return false
	}
	trips, ok := tripCount(k.op, v0, bound, st)
	if !ok || !k.run(ex, s, v0, st, trips, k.condSteps+k.postSteps, k.condSteps) {
		return false
	}
	c.v = intVal(v0 + trips*st)
	return true
}

// chunk runs iterations [lo, hi) of a work-shared loop, as runChunk
// would: each iteration takes the body alone, with the variable in iv.
func (k *kernel) chunk(ex *exec, iv *cell, spec loopSpec, lo, hi int64) bool {
	s := &ex.in.kern
	if !inLimit(spec.start) || !inLimit(spec.step) || !inLimit(hi) || !k.load(ex, s, iv) {
		return false
	}
	v0 := spec.start + lo*spec.step
	if !k.run(ex, s, v0, spec.step, hi-lo, 0, 0) {
		return false
	}
	if hi > lo {
		iv.v = intVal(v0 + (hi-lo-1)*spec.step)
	}
	return true
}

// inLimit reports whether |x| <= kernelLimit.
func inLimit(x int64) bool { return x >= -kernelLimit && x <= kernelLimit }

// tripCount is how many times a serial loop from v0 stepping by st runs
// while "v op bound" holds; ok is false when the loop would not end
// before its variable overflows.
func tripCount(op string, v0, bound, st int64) (int64, bool) {
	switch op {
	case "<":
		if v0 >= bound {
			return 0, true
		}
		return ceilDiv(bound-v0, st), st > 0
	case "<=":
		if v0 > bound {
			return 0, true
		}
		return ceilDiv(bound-v0+1, st), st > 0
	case ">":
		if v0 <= bound {
			return 0, true
		}
		return ceilDiv(v0-bound, -st), st < 0
	case ">=":
		if v0 < bound {
			return 0, true
		}
		return ceilDiv(v0-bound+1, -st), st < 0
	}
	// "!=": the variable must land on the bound.
	if st == 0 || (bound-v0)%st != 0 || (bound-v0)/st < 0 {
		return 0, false
	}
	return (bound - v0) / st, true
}

// value is a term's value; it must not read the loop variable.
func (t term) value(s *kstate) int64 {
	if t.reg >= 0 {
		return s.ints[t.reg] + t.add
	}
	return t.add
}

// load reads every scalar's cell into its register. It fails when a
// cell is missing, holds another kind than its declaration gives, or is
// shared with another scalar or the loop variable's cell iv.
func (k *kernel) load(ex *exec, s *kstate, iv *cell) bool {
	s.ints, s.floats = resize(s.ints, k.ints), resize(s.floats, k.floats)
	s.cells = resize(s.cells, len(k.scalars))
	for i, sc := range k.scalars {
		if sc.temp {
			s.cells[i] = nil
			continue
		}
		c := ex.frame[sc.slot]
		switch {
		case c == nil || c == iv:
			return false
		case sc.float && c.v.k == kFloat:
			s.floats[sc.reg] = c.v.f()
		case !sc.float && c.v.k == kInt:
			if sc.term && !inLimit(c.v.i) {
				return false
			}
			s.ints[sc.reg] = c.v.i
		default:
			return false
		}
		for _, prev := range s.cells[:i] {
			if prev == c { // nil for a temporary
				return false
			}
		}
		s.cells[i] = c
	}
	return true
}

// run runs trips iterations from loop variable v0 stepping by st, each
// taking loopSteps besides the body, and then tail steps, once it has
// checked the budget and resolved every access.
func (k *kernel) run(ex *exec, s *kstate, v0, st, trips, loopSteps, tail int64) bool {
	in := ex.in
	if trips < 0 || trips > kernelLimit || trips*(loopSteps+k.most)+tail > in.stepsLeft {
		return false
	}
	s.extra = 0
	if trips > 0 {
		last := v0 + (trips-1)*st
		if !inLimit(v0) || !inLimit(last) || !k.resolve(ex, s, v0, last) {
			return false
		}
		body := k.body
		for v, n := v0, trips; n > 0; v, n = v+st, n-1 {
			s.iv = v
			body(s)
		}
		for i, sc := range k.scalars {
			switch {
			case !sc.written || sc.temp:
			case sc.float:
				s.cells[i].v = floatVal(s.floats[sc.reg])
			default:
				s.cells[i].v = intVal(s.ints[sc.reg])
			}
		}
	}
	steps := trips*(loopSteps+k.steps) + s.extra + tail
	in.stepsLeft -= steps
	in.kernelSteps += steps
	return true
}

// resolve resolves every access for loop variables first to last: its
// block through chainView, and its element offset as an affine function
// of the variable. It fails unless the element's
// block has the conv the declaration gives and, at both ends, every
// index but the last stays inside its dimension and the element inside
// its block: the checks ex.index makes, on functions whose extremes are
// at the ends.
func (k *kernel) resolve(ex *exec, s *kstate, first, last int64) bool {
	s.elems = resize(s.elems, len(k.elems))
	for i, a := range k.elems {
		c := ex.frame[a.base]
		if c == nil {
			return false
		}
		blk, off, dims, ok := chainView(c.v, len(a.idx))
		if !ok || blk.conv != a.conv {
			return false
		}
		e := kelem{nums: blk.nums, off: int64(off)}
		n, stride := len(a.idx), int64(1)
		for j := n - 1; j >= 0; j-- {
			t := a.idx[j]
			at, coef := t.value(s), int64(0)
			if t.iv {
				coef = 1
			}
			if j < n-1 {
				stride *= int64(dims[j+1])
				if lo, hi := at+coef*first, at+coef*last; min(lo, hi) < 0 || max(lo, hi) >= int64(dims[j]) {
					return false
				}
			}
			e.off += at * stride
			e.coef += coef * stride
		}
		if lo, hi := e.off+e.coef*first, e.off+e.coef*last; min(lo, hi) < 0 || max(lo, hi) >= int64(len(e.nums)) {
			return false
		}
		s.elems[i] = e
	}
	return true
}

// resize returns a slice of n elements, reusing s's array when it has
// room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

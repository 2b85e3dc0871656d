package machine

import (
	"repro/internal/testlang"
)

// exec is one thread of interpretation: shared interpreter state plus
// the running function's frame and region context. Region workers each
// get their own, but run one after another on the goroutine of Run.
type exec struct {
	in *interp
	// frame holds the running function's variables, one cell per slot
	// (lower.go resolves every name to slots). Region workers and
	// work-shared chunks run on copies (fork).
	frame []*cell
	// store backs the cells the frame's own declarations bind (own).
	store []cell
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
	// ret is the value of the call's return statement: int 0 until one
	// sets it.
	ret value
}

// fork returns a copy of ex with a frame of its own, for a region's
// overlays: rebinding a slot of the copy leaves ex's frame as it was,
// while the cells both frames hold stay shared.
func (ex *exec) fork() *exec {
	c := *ex
	c.frame = make([]*cell, len(ex.frame))
	copy(c.frame, ex.frame)
	c.store = nil
	return &c
}

// own binds slot s to this frame's own cell for it and returns the
// cell: each run of a declaration in one frame reuses the cell of the
// run before. Nothing reads that earlier variable any more: its scope
// has exited or the declaration replaced it, no expression of this
// frame is mid-evaluation across a statement, and regions, whose
// copies of the frame share its cells, end before the frame runs on.
func (ex *exec) own(s varRef) *cell {
	if ex.store == nil {
		ex.store = make([]cell, len(ex.frame))
	}
	c := &ex.store[s]
	ex.frame[s] = c
	return c
}

// place is an assignable storage location: a variable's cell, or
// element off of blk when c is nil. It is returned by value, so
// resolving an assignment target allocates nothing. conv converts a
// store into a cell to the variable's declared type, as a block's conv
// does for its elements.
type place struct {
	c    *cell
	blk  *block
	off  int
	conv conv
}

func (p place) load() value {
	if p.c != nil {
		return p.c.v
	}
	return p.blk.get(p.off)
}

// store stores v and returns what a cell now holds; an element's value
// returns as given.
func (p place) store(v value) value {
	if p.c != nil {
		if p.conv == convKeep {
			v = coerceLike(p.c.v, v)
		} else {
			v = p.conv.store(v)
		}
		p.c.v = v
		return v
	}
	p.blk.set(p.off, v)
	return v
}

// index applies one index step to base, trapping on null, freed, or
// out-of-range accesses. It returns the ref indexed and the offset of
// the element or row selected. The index is evaluated before base is
// checked.
func (ex *exec) index(base value, idx evalFn) (value, int) {
	i := int(idx(ex).asInt())
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
		if i < 0 || i >= dims[0] {
			panic(ex.pointerFault())
		}
		return base, int(base.i) + i*stride
	}
	o := int(base.i) + i
	if o < 0 || o >= blk.length() {
		panic(ex.pointerFault())
	}
	return base, o
}

// viewRank is the number of view dimensions left on a ref value.
func (v value) viewRank() int { return len(v.b.dims) - int(v.d) }

// viewOrLoad is the value of an index step: an inner index of a
// multi-dimensional array yields a sub-view ref; a final index yields
// the element value.
func (v value) viewOrLoad(off int) value {
	if v.viewRank() > 1 {
		return value{k: kRef, b: v.b, i: int64(off), d: v.d + 1}
	}
	return v.b.get(off)
}

func (ex *exec) pointerFault() trapSignal {
	if ex.inDevice {
		return illegalDeviceAccess()
	}
	return segfault()
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
			return intVal(int64(v.f()))
		}
		if v.k == kRef || v.k == kNull {
			return v
		}
		return intVal(v.asInt())
	default:
		return v
	}
}

// delta is the step of an increment ("++") or decrement ("--").
func delta(op string) int64 {
	if op == "--" {
		return -1
	}
	return 1
}

func applyDelta(v value, d int64) value {
	if v.k == kFloat {
		return floatVal(v.f() + float64(d))
	}
	if v.k == kRef {
		v.i += d
		return v
	}
	return intVal(v.i + d)
}

func compare(op string, l, r value) value {
	if l.k == kRef || r.k == kRef || l.k == kNull || r.k == kNull {
		eq := pointerEqual(l, r)
		switch {
		case op == "==":
			return boolToInt(eq)
		case op == "!=":
			return boolToInt(!eq)
		case l.k != kRef || r.k != kRef || l.b != r.b:
			// Ordering pointers into different objects, or a pointer and
			// null, is undefined in C.
			return intVal(0)
		}
		// Two pointers into one block order by element offset.
		l, r = intVal(l.i), intVal(r.i)
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

// callFunction invokes a user function, evaluating its arguments in
// the caller. The callee's global aliases read the globals themselves,
// never a region's overlay in the caller.
func (ex *exec) callFunction(fn *funcCode, args []evalFn) value {
	// An argument may itself call at the callee's depth (f(g(1), g(2))),
	// so every argument is evaluated, onto the run's argument stack,
	// before the callee takes its exec.
	in := ex.in
	base := len(in.args)
	for _, a := range args {
		in.args = append(in.args, a(ex))
	}
	if ex.callDepth > 2000 {
		panic(segfault()) // stack overflow
	}
	callee := in.enter(ex, fn.slots)
	for i, p := range fn.params {
		v := zeroValue(p.typ)
		if i < len(args) {
			v = p.conv.apply(in.args[base+i])
		}
		callee.own(varRef(i)).v = v
	}
	in.args = in.args[:base]
	for _, a := range fn.aliases {
		callee.frame[a.slot] = in.globals[a.global]
	}
	// The body ends with flowNext or flowReturn (sema); either way, ret
	// is the call's value.
	fn.body(callee)
	return callee.ret
}

// enter returns the exec of a call from caller with a frame of n empty
// slots, reusing the exec, frame and cell store of the last call that
// ran at its depth. That call has ended: a call at one depth ends before
// the next at that depth starts, since a region's workers run one after
// another. Nor does any of its cells outlive it: &x of a scalar copies
// it, an array lives in a block of its own, and a region's copies of a
// frame end with the region. The store keeps its old cells, which
// nothing reaches: only own puts a cell in the frame, and it sets the
// cell's value. A depth's exec gets in and callDepth when it is made,
// and every other field here, one by one: copying a whole new exec in
// made a 2000-deep recursion a third slower.
func (in *interp) enter(caller *exec, n int) *exec {
	depth := caller.callDepth + 1
	for len(in.calls) <= depth {
		in.calls = append(in.calls, &exec{in: in, callDepth: len(in.calls)})
	}
	callee := in.calls[depth]
	if cap(callee.frame) < n {
		callee.frame = make([]*cell, n)
	} else {
		callee.frame = callee.frame[:n]
		clear(callee.frame)
	}
	if cap(callee.store) < n {
		callee.store = nil // own makes it
	} else {
		callee.store = callee.store[:n]
	}
	callee.inDevice, callee.workerID, callee.regionWidth = caller.inDevice, caller.workerID, caller.regionWidth
	callee.redundant, callee.ret = caller.redundant, value{}
	return callee
}

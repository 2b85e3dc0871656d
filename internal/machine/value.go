// Package machine executes compiled test programs. It is the
// simulation of the paper's execution substrate (a GPU node running
// compiled OpenACC/OpenMP binaries): a tree-walking interpreter over
// the checked AST with
//
//   - a host/device memory model with presence tracking, explicit and
//     implicit data movement, and the dialect-specific strictness that
//     drives the pipeline results (OpenACC performs implicit copies for
//     unmapped aggregates; OpenMP 4.5 traps on unmapped device
//     accesses);
//   - goroutine-backed parallel execution of compute constructs with
//     privatization, reductions, atomics and critical sections;
//   - a trap model producing the return codes and stderr text a real
//     run would hand the agent-based judge (segfaults, device presence
//     faults, step-limit kills, abort).
package machine

import (
	"fmt"

	"repro/internal/testlang"
)

// kind tags a runtime value.
type kind uint8

const (
	kInt kind = iota
	kFloat
	kStr
	kRef
	kNull
)

// value is one runtime value, kept at 40 bytes: every array cell is a
// value and the interpreter copies values on every step. A ref is
// (b, i = element offset, d = leading dimensions stripped from the
// block's dims); a string points at its text.
type value struct {
	k kind
	d int32
	i int64
	f float64
	b *block
	s *string
}

// ref is the unpacked view of a ref value: element offset plus
// remaining view dimensions (for multi-dimensional arrays, indexing
// strips one dimension per step). dims is always a suffix of
// blk.dims.
type ref struct {
	blk  *block
	off  int
	dims []int
}

// block is one allocation: a declared array, a heap allocation, or a
// device mirror of either.
type block struct {
	cells []value
	elem  testlang.Type
	// dims are a declared array's dimensions (nil for heap blocks);
	// device mirrors carry their host block's.
	dims []int
	// byteSize is remembered for heap blocks allocated before their
	// element type is known (malloc result not yet cast/assigned).
	byteSize int64
	// materialized reports whether cells have been sized.
	materialized bool
	freed        bool
	// onDevice marks device mirrors (for diagnostics).
	onDevice bool
	// name of the originating variable, for fault messages.
	name string
}

func intVal(i int64) value     { return value{k: kInt, i: i} }
func floatVal(f float64) value { return value{k: kFloat, f: f} }
func nullVal() value           { return value{k: kNull} }

// strVal wraps a string the caller keeps alive (a literal in the AST
// or a package variable), so making the value does not allocate.
func strVal(s *string) value { return value{k: kStr, s: s} }

// refVal packs a ref view; r.dims must be a suffix of r.blk.dims.
func refVal(r ref) value {
	return value{k: kRef, b: r.blk, i: int64(r.off), d: int32(len(r.blk.dims) - len(r.dims))}
}

// elemRef is a ref to one element: no view dimensions left.
func elemRef(blk *block, off int) value {
	return value{k: kRef, b: blk, i: int64(off), d: int32(len(blk.dims))}
}

// on is a ref value's view moved onto another block with the same
// dims, such as its device mirror.
func (v value) on(b *block) value {
	v.b = b
	return v
}

// refOf unpacks a ref value.
func refOf(v value) (ref, bool) {
	if v.k != kRef {
		return ref{}, false
	}
	return ref{blk: v.b, off: int(v.i), dims: v.b.dims[v.d:]}, true
}

// str is a value's text: the string for kStr, "" for anything else.
func (v value) str() string {
	if v.k == kStr {
		return *v.s
	}
	return ""
}

// zeroValue returns the zero of a declared type. The simulation gives
// deterministic zeros to uninitialised scalars (documented divergence
// from C's undefined behaviour, in the direction real test suites
// rely on) and null to uninitialised pointers (the behaviour the
// negative-probing "removed allocation" mutation needs).
func zeroValue(t testlang.Type) value {
	if t.Ptr > 0 {
		return nullVal()
	}
	if t.IsFloat() {
		return floatVal(0)
	}
	return intVal(0)
}

// sizeOf returns the modelled byte size of a scalar type.
func sizeOf(t testlang.Type) int64 {
	if t.Ptr > 0 {
		return 8
	}
	switch t.Base {
	case "double", "long":
		return 8
	case "char", "bool":
		return 1
	default: // int, float, void
		return 4
	}
}

// asFloat coerces a numeric value to float64.
func (v value) asFloat() float64 {
	switch v.k {
	case kFloat:
		return v.f
	case kInt:
		return float64(v.i)
	default:
		return 0
	}
}

// asInt coerces a numeric value to int64 (floats truncate as in C).
func (v value) asInt() int64 {
	switch v.k {
	case kInt:
		return v.i
	case kFloat:
		return int64(v.f)
	case kNull:
		return 0
	default:
		return 0
	}
}

// truthy implements C truthiness.
func (v value) truthy() bool {
	switch v.k {
	case kInt:
		return v.i != 0
	case kFloat:
		return v.f != 0
	case kRef:
		return true
	case kStr:
		return true
	default:
		return false
	}
}

func (v value) String() string {
	switch v.k {
	case kInt:
		return fmt.Sprintf("%d", v.i)
	case kFloat:
		return fmt.Sprintf("%g", v.f)
	case kStr:
		return *v.s
	case kRef:
		return fmt.Sprintf("<%s+%d>", v.b.name, v.i)
	default:
		return "<null>"
	}
}

// convertTo coerces v to a declared scalar type on assignment,
// mirroring C's implicit conversions.
func convertTo(v value, t testlang.Type) value {
	if t.Ptr > 0 {
		return v // pointer assignment keeps refs/null
	}
	if t.IsFloat() {
		return floatVal(v.asFloat())
	}
	if t.Base == "int" || t.Base == "long" || t.Base == "char" || t.Base == "bool" {
		iv := v.asInt()
		switch t.Base {
		case "char":
			iv = int64(int8(iv))
		case "int":
			iv = int64(int32(iv))
		case "bool":
			if iv != 0 {
				iv = 1
			}
		}
		return intVal(iv)
	}
	return v
}

// newArrayBlock allocates a declared array.
func newArrayBlock(name string, elem testlang.Type, dims []int) *block {
	n := 1
	for _, d := range dims {
		n *= d
	}
	b := &block{elem: elem, dims: dims, materialized: true, name: name}
	b.cells = make([]value, n)
	zero := zeroValue(elem)
	for i := range b.cells {
		b.cells[i] = zero
	}
	return b
}

// newHeapBlock allocates a malloc-style block whose element type is
// fixed later (at cast or typed assignment).
func newHeapBlock(bytes int64) *block {
	return &block{byteSize: bytes, name: "heap"}
}

// materialize sizes a heap block's cells for element type t. Calling
// it again with the same element size is a no-op; C-level type puns
// between same-size types share cells.
func (b *block) materialize(t testlang.Type) {
	if b.materialized {
		return
	}
	es := sizeOf(testlang.Type{Base: t.Base})
	n := b.byteSize / es
	if n < 0 {
		n = 0
	}
	b.elem = testlang.Type{Base: t.Base}
	b.cells = make([]value, n)
	zero := zeroValue(b.elem)
	for i := range b.cells {
		b.cells[i] = zero
	}
	b.materialized = true
}

// cell is one variable binding; sharing a *cell shares the variable.
type cell struct {
	v value
}

// env is a lexical scope chain.
type env struct {
	parent *env
	vars   map[string]*cell
}

func newEnv(parent *env) *env {
	return &env{parent: parent, vars: map[string]*cell{}}
}

func (e *env) lookup(name string) (*cell, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if c, ok := cur.vars[name]; ok {
			return c, true
		}
	}
	return nil, false
}

func (e *env) declare(name string, v value) *cell {
	c := &cell{v: v}
	e.vars[name] = c
	return c
}

// bind inserts an existing cell under a name (used for privatization
// overlays and device rebinding).
func (e *env) bind(name string, c *cell) {
	e.vars[name] = c
}

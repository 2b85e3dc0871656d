// Package machine executes compiled test programs. It is the
// simulation of the paper's execution substrate (a GPU node running
// compiled OpenACC/OpenMP binaries). Each Run first lowers the checked
// AST to a tree of Go closures, one per node (lower.go), and then
// executes those, with
//
//   - a host/device memory model with presence tracking, explicit and
//     implicit data movement, and the dialect-specific strictness that
//     drives the pipeline results (OpenACC performs implicit copies for
//     unmapped aggregates; OpenMP 4.5 traps on unmapped device
//     accesses);
//   - parallel execution of compute constructs, each region's workers
//     run one after another, with privatization, reductions, atomics
//     and critical sections;
//   - a trap model producing the return codes and stderr text a real
//     run would hand the agent-based judge (segfaults, device presence
//     faults, step-limit kills, abort).
package machine

import (
	"fmt"
	"math"

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

// value is one runtime value: every array cell is a value and every
// closure of the lowered code returns one. It has four fields and 24
// bytes, because the Go compiler keeps a struct in registers only up to
// four fields and 32 bytes (ssa.CanSSA); past that, every value a
// closure returns, passes or holds across a call goes through memory.
// An int is i; a float is its IEEE-754 bits in i (read them with f); a
// ref is (b, i = element offset, d = leading dimensions stripped from
// the block's dims); a string is b, a block holding only its text.
type value struct {
	k kind
	d int32
	i int64
	b *block
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
// device mirror of either. Its element storage depends on conv, which
// is fixed with elem (at declaration, in materialize for a heap block,
// or from the host block for a mirror):
//
//   - a numeric block (conv converts to float, int, long, char or bool)
//     keeps each element as its raw 8-byte payload in nums: an int, or
//     a float's IEEE-754 bits. Every store converts through conv, so
//     every element has the kind numKind, and a load rebuilds the value
//     from the two. nums holds no pointers, so the garbage collector
//     never scans it, and it takes a third of the bytes of []value;
//   - a convKeep block (untyped elements, a scalar's address, the
//     OpenMP fault block) keeps whole values in cells, since its
//     elements may be refs.
//
// Go through get, set, length and copyFrom, which pick the storage.
type block struct {
	nums  []int64
	cells []value
	// numKind is the kind of every element of a numeric block.
	numKind kind
	// conv converts a value stored into an element to elem; set
	// wherever elem is.
	conv conv
	elem testlang.Type
	// dims are a declared array's dimensions (nil for heap blocks);
	// device mirrors carry their host block's.
	dims []int
	// byteSize is remembered for heap blocks allocated before their
	// element type is known (malloc result not yet cast/assigned).
	byteSize int64
	// materialized reports whether the elements have been sized.
	materialized bool
	freed        bool
	// onDevice marks device mirrors (for diagnostics).
	onDevice bool
	// name of the originating variable, for fault messages.
	name string
	// text is a string value's text; set only on the blocks strVal
	// makes, which hold nothing else.
	text *string
}

// setElem fixes the block's element type and sizes its storage to n
// zero elements.
func (b *block) setElem(elem testlang.Type, n int) {
	b.elem = elem
	b.conv = convOf(elem)
	b.materialized = true
	if b.conv != convKeep {
		b.numKind = kInt
		if b.conv == convFloat {
			b.numKind = kFloat
		}
		b.nums = make([]int64, n) // 0 is the payload of both zeros
		return
	}
	b.cells = make([]value, n)
	zero := zeroValue(elem)
	for i := range b.cells {
		b.cells[i] = zero
	}
}

// length is the block's element count.
func (b *block) length() int {
	if b.conv != convKeep {
		return len(b.nums)
	}
	return len(b.cells)
}

// get loads element i.
func (b *block) get(i int) value {
	if b.conv != convKeep {
		return value{k: b.numKind, i: b.nums[i]}
	}
	return b.cells[i]
}

// set stores v, converted to the element type, into element i.
func (b *block) set(i int, v value) {
	if b.conv != convKeep {
		b.nums[i] = b.conv.apply(v).i
		return
	}
	b.cells[i] = v
}

// copyFrom copies elements [lo, lo+n) from src, a block of the same
// element type and length: a host block and its device mirror.
func (b *block) copyFrom(src *block, lo, n int) {
	if b.conv != convKeep {
		copy(b.nums[lo:lo+n], src.nums[lo:lo+n])
		return
	}
	copy(b.cells[lo:lo+n], src.cells[lo:lo+n])
}

func intVal(i int64) value     { return value{k: kInt, i: i} }
func floatVal(f float64) value { return value{k: kFloat, i: int64(math.Float64bits(f))} }
func nullVal() value           { return value{k: kNull} }

// f is a float value's payload.
func (v value) f() float64 { return math.Float64frombits(uint64(v.i)) }

// strVal wraps a string the caller keeps alive (a literal in the AST
// or a package variable). It allocates the block that carries the
// text, so lowering makes each string value once, as a constant.
func strVal(s *string) value { return value{k: kStr, b: &block{text: s}} }

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
		return *v.b.text
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
		return v.f()
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
		return int64(v.f())
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
		return v.f() != 0
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
		return fmt.Sprintf("%g", v.f())
	case kStr:
		return *v.b.text
	case kRef:
		return fmt.Sprintf("<%s+%d>", v.b.name, v.i)
	default:
		return "<null>"
	}
}

// conv is a conversion to a declared scalar type, mirroring C's
// implicit conversions on assignment. It is decided once, where the
// type is known (a declaration, a parameter, a cast, a block's element
// type), so a store never compares type names. The zero value keeps
// the value as it is, as pointer types and untyped blocks do.
type conv uint8

const (
	convKeep conv = iota
	convFloat
	convInt // int: truncates to 32 bits
	convLong
	convChar
	convBool
)

// convOf decides the conversion to t.
func convOf(t testlang.Type) conv {
	if t.Ptr > 0 {
		return convKeep // pointer assignment keeps refs/null
	}
	switch t.Base {
	case "float", "double":
		return convFloat
	case "int":
		return convInt
	case "long":
		return convLong
	case "char":
		return convChar
	case "bool":
		return convBool
	}
	return convKeep
}

// apply converts v.
func (c conv) apply(v value) value {
	switch c {
	case convKeep:
		return v
	case convFloat:
		return floatVal(v.asFloat())
	}
	return intVal(c.narrow(v.asInt()))
}

// store converts v for a store into a scalar declared with c, as the
// declaration's initializer converts, except that a pointer stored into
// an integer keeps its ref, as coerceLike keeps it.
func (c conv) store(v value) value {
	if c != convFloat && (v.k == kRef || v.k == kNull) {
		return v
	}
	return c.apply(v)
}

// narrow converts an int to an integer type's range.
func (c conv) narrow(i int64) int64 {
	switch c {
	case convChar:
		return int64(int8(i))
	case convInt:
		return int64(int32(i))
	case convBool:
		if i != 0 {
			return 1
		}
		return 0
	}
	return i
}

// newArrayBlock allocates a declared array.
func newArrayBlock(name string, elem testlang.Type, dims []int) *block {
	n := 1
	for _, d := range dims {
		n *= d
	}
	b := &block{dims: dims, name: name}
	b.setElem(elem, n)
	return b
}

// newHeapBlock allocates a malloc-style block whose element type is
// fixed later (at cast or typed assignment).
func newHeapBlock(bytes int64) *block {
	return &block{byteSize: bytes, name: "heap"}
}

// materialize sizes a heap block's elements for element type elem, the
// type a pointer to the block points to. Calling it again is a no-op:
// C-level type puns read and write the elements the first type sized,
// converting through its conv.
func (b *block) materialize(elem testlang.Type) {
	if b.materialized {
		return
	}
	n := b.byteSize / sizeOf(elem)
	if n < 0 {
		n = 0
	}
	b.setElem(elem, int(n))
}

// cell is one variable's storage; sharing a *cell shares the variable.
type cell struct {
	v value
}

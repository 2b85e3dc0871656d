package machine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/testlang"
)

// call binds a call to a user function's lowered code, or to one
// builtin's closure; a name that is neither is the unresolved symbol a
// lenient (implicitly declaring) compile leaves behind, and traps when
// the call runs.
func (l *lowerer) call(n *testlang.CallExpr) evalFn {
	if fd, ok := l.obj.Funcs[n.Fun]; ok && fd.Body != nil {
		fn, args := l.function(n.Fun, fd), l.exprs(n.Args)
		return func(ex *exec) value {
			ex.in.step()
			return ex.callFunction(fn, args)
		}
	}
	arg := func(i int) evalFn {
		if i < len(n.Args) {
			return l.expr(n.Args[i])
		}
		return missingArg
	}
	switch n.Fun {
	case "printf":
		return l.printf(n.Args, false)
	case "fprintf":
		if len(n.Args) == 0 {
			return constant(intVal(0))
		}
		id, ok := n.Args[0].(*testlang.IdentExpr)
		return l.printf(n.Args[1:], ok && id.Name == "stderr")
	case "malloc":
		if len(n.Args) != 1 {
			return constant(nullVal())
		}
		size := arg(0)
		return func(ex *exec) value {
			ex.in.step()
			bytes := size(ex).asInt()
			if bytes < 0 || bytes > 1<<28 {
				return nullVal()
			}
			return refVal(ref{blk: newHeapBlock(bytes)})
		}
	case "calloc":
		if len(n.Args) != 2 {
			return constant(nullVal())
		}
		count, size := arg(0), arg(1)
		return func(ex *exec) value {
			ex.in.step()
			c := count(ex).asInt()
			total := c * size(ex).asInt()
			if total < 0 || total > 1<<28 {
				return nullVal()
			}
			return refVal(ref{blk: newHeapBlock(total)})
		}
	case "free":
		if len(n.Args) != 1 {
			return constant(intVal(0))
		}
		ptr := arg(0)
		return func(ex *exec) value {
			ex.in.step()
			v := ptr(ex)
			if v.k == kNull || (v.k == kInt && v.i == 0) {
				return intVal(0) // free(NULL) is a no-op
			}
			r, ok := refOf(v)
			if !ok || r.off != 0 {
				panic(abortFault("free(): invalid pointer"))
			}
			if r.blk.freed {
				panic(abortFault("free(): double free detected"))
			}
			r.blk.freed = true
			return intVal(0)
		}
	case "exit":
		if len(n.Args) == 0 {
			return func(ex *exec) value {
				ex.in.step()
				panic(exitSignal{code: 0})
			}
		}
		code := arg(0)
		return func(ex *exec) value {
			ex.in.step()
			panic(exitSignal{code: int(code(ex).asInt())})
		}
	case "abs", "labs":
		x := arg(0)
		return func(ex *exec) value {
			ex.in.step()
			v := x(ex).asInt()
			if v < 0 {
				v = -v
			}
			return intVal(v)
		}
	case "fabs", "fabsf":
		return math1(arg(0), math.Abs)
	case "sqrt", "sqrtf":
		return math1(arg(0), math.Sqrt)
	case "floor":
		return math1(arg(0), math.Floor)
	case "ceil":
		return math1(arg(0), math.Ceil)
	case "sin":
		return math1(arg(0), math.Sin)
	case "cos":
		return math1(arg(0), math.Cos)
	case "exp":
		return math1(arg(0), math.Exp)
	case "log":
		return math1(arg(0), math.Log)
	case "pow":
		return math2(arg(0), arg(1), math.Pow)
	case "fmax":
		return math2(arg(0), arg(1), math.Max)
	case "fmin":
		return math2(arg(0), arg(1), math.Min)
	case "omp_get_num_threads":
		return func(ex *exec) value {
			ex.in.step()
			if ex.regionWidth > 0 {
				return intVal(int64(ex.regionWidth))
			}
			return intVal(1)
		}
	case "omp_get_thread_num":
		return func(ex *exec) value {
			ex.in.step()
			return intVal(int64(ex.workerID))
		}
	case "omp_get_max_threads":
		return func(ex *exec) value {
			ex.in.step()
			return intVal(int64(ex.in.opts.Workers))
		}
	case "omp_get_num_devices", "acc_get_num_devices":
		return constant(intVal(1))
	case "omp_is_initial_device":
		return func(ex *exec) value {
			ex.in.step()
			return boolToInt(!ex.inDevice)
		}
	case "acc_get_device_num":
		return constant(intVal(0))
	}
	// Implicitly declared function (compiled under the lenient
	// personality): calling it at run time is an unresolved symbol. A
	// native toolchain would fail at link; the lenient model mirrors
	// historic behaviour where the call traps at run time.
	link := trapSignal{
		kind: "link",
		rc:   127,
		msg:  fmt.Sprintf("symbol lookup error: undefined symbol: %s", n.Fun),
	}
	return func(ex *exec) value {
		ex.in.step()
		panic(link)
	}
}

// missingArg stands for a builtin argument the call does not pass
// (sema rejects such calls; a hand-built object can still hold one):
// evaluating it is the crash reading past the argument list would be.
func missingArg(*exec) value { panic(segfault()) }

func math1(x evalFn, f func(float64) float64) evalFn {
	return func(ex *exec) value {
		ex.in.step()
		return floatVal(f(x(ex).asFloat()))
	}
}

func math2(x, y evalFn, f func(float64, float64) float64) evalFn {
	return func(ex *exec) value {
		ex.in.step()
		a := x(ex).asFloat()
		return floatVal(f(a, y(ex).asFloat()))
	}
}

// printf lowers printf and fprintf's format and arguments. A literal
// format is taken as is, without a step; any other is evaluated.
func (l *lowerer) printf(args []testlang.Expr, toErr bool) evalFn {
	if len(args) == 0 {
		return constant(intVal(0))
	}
	var format string
	var formatFn evalFn
	if s, ok := args[0].(*testlang.StringLitExpr); ok {
		format = s.Value
	} else {
		formatFn = l.expr(args[0])
	}
	rest := l.exprs(args[1:])
	return func(ex *exec) value {
		ex.in.step()
		f := format
		if formatFn != nil {
			f = formatFn(ex).str()
		}
		vals := make([]value, len(rest))
		for i, a := range rest {
			vals[i] = a(ex)
		}
		out := formatC(f, vals)
		if toErr {
			ex.in.printErr(out)
		} else {
			ex.in.printOut(out)
		}
		return intVal(int64(len(out)))
	}
}

// formatC implements the printf subset the corpus and probed files
// use: %d %i %u %ld %lld %lu %zu %f %lf %e %g %s %c %p %x %%, with
// optional width and precision.
func formatC(format string, args []value) string {
	var b strings.Builder
	argi := 0
	next := func() value {
		if argi < len(args) {
			v := args[argi]
			argi++
			return v
		}
		return intVal(0)
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		// Parse %[flags][width][.prec][length]verb
		j := i + 1
		spec := "%"
		for j < len(format) && strings.IndexByte("-+ 0#", format[j]) >= 0 {
			spec += string(format[j])
			j++
		}
		for j < len(format) && format[j] >= '0' && format[j] <= '9' {
			spec += string(format[j])
			j++
		}
		if j < len(format) && format[j] == '.' {
			spec += "."
			j++
			for j < len(format) && format[j] >= '0' && format[j] <= '9' {
				spec += string(format[j])
				j++
			}
		}
		// length modifiers: consumed, not emitted.
		for j < len(format) && (format[j] == 'l' || format[j] == 'h' || format[j] == 'z') {
			j++
		}
		if j >= len(format) {
			b.WriteString(spec)
			break
		}
		verb := format[j]
		j++
		switch verb {
		case '%':
			b.WriteByte('%')
		case 'd', 'i', 'u':
			fmt.Fprintf(&b, spec+"d", next().asInt())
		case 'x':
			fmt.Fprintf(&b, spec+"x", next().asInt())
		case 'f', 'F':
			if !strings.Contains(spec, ".") {
				spec += ".6"
			}
			fmt.Fprintf(&b, spec+"f", next().asFloat())
		case 'e', 'E':
			if !strings.Contains(spec, ".") {
				spec += ".6"
			}
			fmt.Fprintf(&b, spec+string(verb), next().asFloat())
		case 'g', 'G':
			fmt.Fprintf(&b, spec+"g", next().asFloat())
		case 's':
			fmt.Fprintf(&b, spec+"s", next().str())
		case 'c':
			b.WriteByte(byte(next().asInt()))
		case 'p':
			v := next()
			if r, ok := refOf(v); ok {
				fmt.Fprintf(&b, "0x%x", uintptrOf(r))
			} else {
				b.WriteString("(nil)")
			}
		default:
			b.WriteString(spec)
			b.WriteByte(verb)
		}
		i = j
	}
	return b.String()
}

// uintptrOf synthesises a stable fake address for %p from the block
// identity; the simulation has no real addresses.
func uintptrOf(r ref) uint64 {
	// Hash the block pointer via its name and length; collisions are
	// harmless (output text only).
	h := uint64(0x811c9dc5)
	for _, ch := range r.blk.name {
		h = (h ^ uint64(ch)) * 0x01000193
	}
	h = (h ^ uint64(r.blk.length())) * 0x01000193
	return (h<<8 | 0x7f0000000000) + uint64(r.off)*8
}

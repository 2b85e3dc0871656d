package machine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/testlang"
)

// evalCall dispatches a call to a user function or a builtin.
func (ex *exec) evalCall(n *testlang.CallExpr) value {
	if fd, ok := ex.in.obj.Funcs[n.Fun]; ok && fd.Body != nil {
		args := make([]value, len(n.Args))
		for i, a := range n.Args {
			args[i] = ex.eval(a)
		}
		return ex.callFunction(fd, args)
	}
	switch n.Fun {
	case "printf":
		return ex.doPrintf(n.Args, false)
	case "fprintf":
		if len(n.Args) == 0 {
			return intVal(0)
		}
		toErr := false
		if id, ok := n.Args[0].(*testlang.IdentExpr); ok && id.Name == "stderr" {
			toErr = true
		}
		return ex.doPrintfTo(n.Args[1:], toErr)
	case "malloc":
		if len(n.Args) != 1 {
			return nullVal()
		}
		bytes := ex.eval(n.Args[0]).asInt()
		if bytes < 0 || bytes > 1<<28 {
			return nullVal()
		}
		return refVal(ref{blk: newHeapBlock(bytes)})
	case "calloc":
		if len(n.Args) != 2 {
			return nullVal()
		}
		count := ex.eval(n.Args[0]).asInt()
		size := ex.eval(n.Args[1]).asInt()
		total := count * size
		if total < 0 || total > 1<<28 {
			return nullVal()
		}
		return refVal(ref{blk: newHeapBlock(total)})
	case "free":
		if len(n.Args) != 1 {
			return intVal(0)
		}
		v := ex.eval(n.Args[0])
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
	case "exit":
		code := int64(0)
		if len(n.Args) > 0 {
			code = ex.eval(n.Args[0]).asInt()
		}
		panic(exitSignal{code: int(code)})
	case "abs", "labs":
		v := ex.eval(n.Args[0]).asInt()
		if v < 0 {
			v = -v
		}
		return intVal(v)
	case "fabs", "fabsf":
		return floatVal(math.Abs(ex.eval(n.Args[0]).asFloat()))
	case "sqrt", "sqrtf":
		return floatVal(math.Sqrt(ex.eval(n.Args[0]).asFloat()))
	case "pow":
		return floatVal(math.Pow(ex.eval(n.Args[0]).asFloat(), ex.eval(n.Args[1]).asFloat()))
	case "floor":
		return floatVal(math.Floor(ex.eval(n.Args[0]).asFloat()))
	case "ceil":
		return floatVal(math.Ceil(ex.eval(n.Args[0]).asFloat()))
	case "fmax":
		return floatVal(math.Max(ex.eval(n.Args[0]).asFloat(), ex.eval(n.Args[1]).asFloat()))
	case "fmin":
		return floatVal(math.Min(ex.eval(n.Args[0]).asFloat(), ex.eval(n.Args[1]).asFloat()))
	case "sin":
		return floatVal(math.Sin(ex.eval(n.Args[0]).asFloat()))
	case "cos":
		return floatVal(math.Cos(ex.eval(n.Args[0]).asFloat()))
	case "exp":
		return floatVal(math.Exp(ex.eval(n.Args[0]).asFloat()))
	case "log":
		return floatVal(math.Log(ex.eval(n.Args[0]).asFloat()))
	case "omp_get_num_threads":
		if ex.regionWidth > 0 {
			return intVal(int64(ex.regionWidth))
		}
		return intVal(1)
	case "omp_get_thread_num":
		return intVal(int64(ex.workerID))
	case "omp_get_max_threads":
		return intVal(int64(ex.in.opts.Workers))
	case "omp_get_num_devices", "acc_get_num_devices":
		return intVal(1)
	case "omp_is_initial_device":
		return boolToInt(!ex.inDevice)
	case "acc_get_device_num":
		return intVal(0)
	default:
		// Implicitly declared function (compiled under the lenient
		// personality): calling it at run time is an unresolved symbol.
		// A native toolchain would fail at link; the lenient model
		// mirrors historic behaviour where the call traps at run time.
		panic(trapSignal{
			kind: "link",
			rc:   127,
			msg:  fmt.Sprintf("symbol lookup error: undefined symbol: %s", n.Fun),
		})
	}
}

func (ex *exec) doPrintf(args []testlang.Expr, toErr bool) value {
	return ex.doPrintfTo(args, toErr)
}

func (ex *exec) doPrintfTo(args []testlang.Expr, toErr bool) value {
	if len(args) == 0 {
		return intVal(0)
	}
	format := ""
	if s, ok := args[0].(*testlang.StringLitExpr); ok {
		format = s.Value
	} else {
		format = ex.eval(args[0]).str()
	}
	vals := make([]value, 0, len(args)-1)
	for _, a := range args[1:] {
		vals = append(vals, ex.eval(a))
	}
	out := formatC(format, vals)
	if toErr {
		ex.in.printErr(out)
	} else {
		ex.in.printOut(out)
	}
	return intVal(int64(len(out)))
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
	h = (h ^ uint64(len(r.blk.cells))) * 0x01000193
	return (h<<8 | 0x7f0000000000) + uint64(r.off)*8
}

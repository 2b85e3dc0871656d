package machine

import (
	"fmt"
	"strings"

	"repro/internal/compiler"
)

// Options configures one program execution.
type Options struct {
	// Workers is the parallel width of compute regions (gangs/threads).
	// 0 means DefaultWorkers.
	Workers int
	// StepLimit bounds total interpreted steps across all workers;
	// exceeding it kills the run with ReturnCode 124, modelling the
	// batch-system time limit the paper's pipeline runs under. Region
	// workers run one after another, so every run traps at exactly
	// step StepLimit+1, at any Workers.
	// 0 means DefaultStepLimit.
	StepLimit int64
	// OutputLimit bounds captured stdout/stderr bytes (each).
	// 0 means DefaultOutputLimit.
	OutputLimit int
}

// Defaults for Options fields.
const (
	DefaultWorkers     = 4
	DefaultStepLimit   = 8_000_000
	DefaultOutputLimit = 1 << 16
)

// Result is the outcome of running a compiled program: exactly the
// information the paper's agent-based prompt receives.
type Result struct {
	ReturnCode int
	Stdout     string
	Stderr     string
	// Trap names the abnormal-termination cause ("segfault",
	// "device-fault", "step-limit", "abort", "fpe", ""), for tests and
	// reports; the judge only sees ReturnCode/Stderr like a real run.
	Trap string
	// Steps is the number of interpreted steps, for benchmarks. It
	// never exceeds Options.StepLimit, and equals it when the run hit
	// the limit. A work-shared loop costs the same steps at any
	// Options.Workers (a redundant omp parallel body runs once per
	// worker, so it costs more at a larger width).
	Steps int64
}

// trap is the panic payload for simulated hardware/OS faults.
type trapSignal struct {
	kind string
	rc   int
	msg  string
}

// exitSignal unwinds to Run on exit().
type exitSignal struct{ code int }

// interp is the shared interpreter state for one run.
type interp struct {
	opts Options

	stdout   strings.Builder
	stderr   strings.Builder
	outTrunc bool

	// stepsLeft is the part of the step limit not yet spent.
	stepsLeft int64

	// presence is the device data environment: host block -> device
	// mirror with a structured/dynamic reference count.
	presence map[*block]*presenceEntry

	// globals is the frame of the file-scope variables, one slot each.
	globals []*cell

	// calls holds the exec of the running call at each call depth, with
	// its frame and cell store, and args the arguments of the calls
	// being made (callFunction).
	calls []*exec
	args  []value

	// kern holds the operands of the loop kernel running, if any, and
	// kernelSteps counts the steps kernels took.
	kern        kstate
	kernelSteps int64
}

type presenceEntry struct {
	dev      *block
	refcount int
}

// Run executes a compiled object and captures its observable
// behaviour. It never panics: all simulated faults are converted to
// return codes and stderr text, and internal interpreter failures on
// pathological (mutated) inputs surface as a simulated crash.
func Run(obj *compiler.Object, opts Options) *Result {
	res, _ := execute(obj, opts, true)
	return res
}

// execute is Run, with loop kernels when kernels is set, and also
// returns how many of the run's steps kernels took. Kernels change how
// fast a run is, never its Result: tests compare runs without them.
func execute(obj *compiler.Object, opts Options, kernels bool) (res *Result, inKernels int64) {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.StepLimit <= 0 {
		opts.StepLimit = DefaultStepLimit
	}
	if opts.OutputLimit <= 0 {
		opts.OutputLimit = DefaultOutputLimit
	}
	in := &interp{opts: opts, stepsLeft: opts.StepLimit, presence: map[*block]*presenceEntry{}}
	res = &Result{}
	defer func() {
		res.Steps, inKernels = opts.StepLimit-in.stepsLeft, in.kernelSteps
		res.Stdout = in.stdout.String()
		res.Stderr = in.stderr.String()
		switch sig := recover().(type) {
		case nil:
		case exitSignal:
			res.ReturnCode = sig.code & 255
		case trapSignal:
			res.ReturnCode = sig.rc
			res.Trap = sig.kind
			res.Stderr = res.Stderr + sig.msg + "\n"
		default:
			// An interpreter-level panic on a pathological mutated
			// program is reported as the crash a native binary would
			// produce.
			res.ReturnCode = 139
			res.Trap = "segfault"
			res.Stderr = res.Stderr + "Segmentation fault (core dumped)\n"
		}
	}()

	if obj == nil || obj.File == nil {
		panic(trapSignal{kind: "no-object", rc: 127, msg: "exec format error"})
	}
	prog := lower(obj, kernels)
	in.globals = make([]*cell, len(prog.globals))
	ex := &exec{in: in, frame: in.globals}
	for _, g := range prog.globals {
		g(ex)
	}
	if prog.main == nil {
		panic(trapSignal{kind: "no-main", rc: 127, msg: "undefined reference to main"})
	}
	ret := ex.callFunction(prog.main, nil)
	res.ReturnCode = int(ret.asInt()) & 255
	return res, 0
}

// step counts one interpreted step and enforces the step limit.
func (in *interp) step() {
	if in.stepsLeft == 0 {
		panic(trapSignal{kind: "step-limit", rc: 124, msg: "Killed: execution time limit exceeded"})
	}
	in.stepsLeft--
}

func (in *interp) printOut(s string) {
	if in.stdout.Len()+len(s) > in.opts.OutputLimit {
		if !in.outTrunc {
			in.stdout.WriteString("\n[output truncated]\n")
			in.outTrunc = true
		}
		return
	}
	in.stdout.WriteString(s)
}

func (in *interp) printErr(s string) {
	if in.stderr.Len()+len(s) > in.opts.OutputLimit {
		return
	}
	in.stderr.WriteString(s)
}

// Fault constructors.

func segfault() trapSignal {
	return trapSignal{kind: "segfault", rc: 139, msg: "Segmentation fault (core dumped)"}
}

func deviceFault(varName, reason string) trapSignal {
	return trapSignal{
		kind: "device-fault",
		rc:   1,
		msg:  fmt.Sprintf("FATAL ERROR: data for variable '%s' %s", varName, reason),
	}
}

func illegalDeviceAccess() trapSignal {
	return trapSignal{
		kind: "device-fault",
		rc:   1,
		msg:  "CUDA error: an illegal memory access was encountered",
	}
}

func abortFault(msg string) trapSignal {
	return trapSignal{kind: "abort", rc: 134, msg: msg + "\nAborted (core dumped)"}
}

func fpeFault() trapSignal {
	return trapSignal{kind: "fpe", rc: 136, msg: "Floating point exception (core dumped)"}
}

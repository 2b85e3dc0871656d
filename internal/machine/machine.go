package machine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
)

// Options configures one program execution.
type Options struct {
	// Workers is the parallel width of compute regions (gangs/threads).
	// 0 means DefaultWorkers.
	Workers int
	// StepLimit bounds total interpreted steps across all workers;
	// exceeding it kills the run with ReturnCode 124, modelling the
	// batch-system time limit the paper's pipeline runs under. A run
	// never executes more than StepLimit steps. Steps that run one
	// after another (code outside parallel regions, and region workers
	// run serially: one worker, or a race-detector build) trap at
	// exactly step StepLimit+1. Concurrent region workers claim steps
	// in chunks of 1024, so one may trap while another still holds
	// unspent steps: up to 1024 steps per worker sooner.
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
	// never exceeds Options.StepLimit. For a completed run it is exact
	// and independent of scheduling: a work-shared loop costs the same
	// steps at any Options.Workers (a redundant omp parallel body runs
	// once per worker, so it costs more at a larger width).
	Steps int64
}

// trap is the panic payload for simulated hardware/OS faults.
type trapSignal struct {
	kind string
	rc   int
	msg  string
}

// exitSignal unwinds to Run on exit()/main return.
type exitSignal struct{ code int }

// returnSignal unwinds one function call.
type returnSignal struct{ v value }

// breakSignal / continueSignal unwind loop bodies.
type breakSignal struct{}
type continueSignal struct{}

// interp is the shared interpreter state for one run.
type interp struct {
	obj  *compiler.Object
	opts Options

	outMu    sync.Mutex
	stdout   strings.Builder
	stderr   strings.Builder
	outTrunc bool

	// remaining is the part of the step limit no goroutine has
	// claimed; budgets claim it in chunks and return what they do not
	// spend.
	remaining atomic.Int64

	// atomicMu serialises atomic updates and critical sections.
	atomicMu sync.Mutex

	// presence is the device data environment: host block -> device
	// mirror with a structured/dynamic reference count.
	presenceMu sync.Mutex
	presence   map[*block]*presenceEntry

	globals *env
}

type presenceEntry struct {
	dev      *block
	refcount int
}

// Run executes a compiled object and captures its observable
// behaviour. It never panics: all simulated faults are converted to
// return codes and stderr text, and internal interpreter failures on
// pathological (mutated) inputs surface as a simulated crash.
func Run(obj *compiler.Object, opts Options) (res *Result) {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.StepLimit <= 0 {
		opts.StepLimit = DefaultStepLimit
	}
	if opts.OutputLimit <= 0 {
		opts.OutputLimit = DefaultOutputLimit
	}
	in := &interp{obj: obj, opts: opts, presence: map[*block]*presenceEntry{}}
	in.remaining.Store(opts.StepLimit)
	bud := &budget{in: in}
	res = &Result{}
	defer func() {
		bud.release()
		res.Steps = opts.StepLimit - in.remaining.Load()
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
	in.globals = newEnv(nil)
	ex := &exec{in: in, env: in.globals, bud: bud}
	for _, g := range obj.Globals {
		ex.declareVar(g, in.globals)
	}
	main := obj.Funcs["main"]
	if main == nil || main.Body == nil {
		panic(trapSignal{kind: "no-main", rc: 127, msg: "undefined reference to main"})
	}
	ret := ex.callFunction(main, nil)
	res.ReturnCode = int(ret.asInt()) & 255
	return res
}

// stepChunk is how many steps a budget claims from the shared
// counter at a time: large enough that the shared cache line is
// touched once per thousand steps, small enough that concurrent
// workers strand little of the limit.
const stepChunk = 1024

// budget is one goroutine's share of the step limit. Only its own
// goroutine touches left, so a step costs no shared-memory traffic.
type budget struct {
	in   *interp
	left int64
}

// step counts one interpreted step and enforces the step limit.
func (b *budget) step() {
	if b.left == 0 {
		b.claim()
	}
	b.left--
}

// claim takes the next chunk from the unclaimed steps, trapping when
// none are left.
func (b *budget) claim() {
	for {
		r := b.in.remaining.Load()
		if r <= 0 {
			panic(trapSignal{kind: "step-limit", rc: 124, msg: "Killed: execution time limit exceeded"})
		}
		n := min64(r, stepChunk)
		if b.in.remaining.CompareAndSwap(r, r-n) {
			b.left = n
			return
		}
	}
}

// release returns the unspent steps to the shared counter.
func (b *budget) release() {
	if b.left > 0 {
		b.in.remaining.Add(b.left)
		b.left = 0
	}
}

func (in *interp) printOut(s string) {
	in.outMu.Lock()
	defer in.outMu.Unlock()
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
	in.outMu.Lock()
	defer in.outMu.Unlock()
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

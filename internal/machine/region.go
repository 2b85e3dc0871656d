package machine

import (
	"math"
	"runtime"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// maxRegionWorkers caps requested parallelism (num_gangs(100000) must
// not run a region body 100000 times).
const maxRegionWorkers = 64

// dirCode is one lowered directive: its compiled plan with every
// expression the plan and its clauses evaluate lowered, and every
// variable it names resolved to its slot.
type dirCode struct {
	// plan is nil for a directive the compiler left unplanned.
	plan    *compiler.DirPlan
	dialect spec.Dialect
	// body is the associated statement (nopStmt when absent).
	body execFn
	// cond is the if() clause, nworkers the requested width; nil when
	// absent.
	cond     evalFn
	nworkers evalFn
	data     []dataOpCode
	// loop is the body when it is a for statement, shape the canonical
	// form of a loop directive's loop; loop is nil otherwise.
	loop  *forLoop
	shape loopShape
	// The variables the directive binds or looks up, resolved where it
	// stands (the body's own declarations are out of reach): free and
	// plainWrites are the plan's Free and PlainWrites; privates and
	// firstprivates are the clauses' variables, reductions the
	// reduction clauses' and then the inherited ones.
	free, plainWrites       []varRef
	privates, firstprivates []varRef
	reductions              []reductionCode
}

type reductionCode struct {
	op  string
	ref varRef
}

// dataOpCode is a data clause with its sections' bounds lowered.
type dataOpCode struct {
	mode compiler.DataMode
	secs []sectionCode
}

type sectionCode struct {
	name string
	ref  varRef
	// lo and n are nil when the clause names the whole object.
	lo, n evalFn
}

// directive lowers one directive statement.
func (l *lowerer) directive(ds *testlang.DirectiveStmt) *dirCode {
	d := &dirCode{plan: l.obj.Plans[ds], dialect: l.obj.Dialect}
	iv := varRef(-1)
	if d.plan != nil {
		l.planCode(d)
		if f := d.plan.Loop; f != nil {
			iv = l.slot(f.Var.Bind)
		}
	}
	fs, isFor := ds.Body.(*testlang.ForStmt)
	if !isFor {
		d.body = l.stmt(ds.Body)
		return d
	}
	d.loop = l.forLoop(fs, iv)
	loop := d.loop
	d.body = func(ex *exec) flow {
		ex.in.step()
		return loop.run(ex)
	}
	return d
}

// planCode lowers what a planned directive evaluates and binds before
// its body runs.
func (l *lowerer) planCode(d *dirCode) {
	plan := d.plan
	if plan.If != nil {
		d.cond = l.expr(plan.If)
	}
	if plan.NumWorkers != nil {
		d.nworkers = l.expr(plan.NumWorkers)
	}
	d.data = make([]dataOpCode, len(plan.Data))
	for i, op := range plan.Data {
		d.data[i] = dataOpCode{mode: op.Mode, secs: make([]sectionCode, len(op.Sections))}
		for j, sec := range op.Sections {
			sc := sectionCode{name: sec.Name, ref: l.slot(sec.Bind)}
			if sec.Lo != nil {
				sc.lo, sc.n = l.expr(sec.Lo), l.expr(sec.Len)
			}
			d.data[i].secs[j] = sc
		}
	}
	for _, v := range plan.Private {
		d.privates = append(d.privates, l.slot(v.Bind))
	}
	for _, v := range plan.FirstPrivate {
		d.firstprivates = append(d.firstprivates, l.slot(v.Bind))
	}
	for _, reds := range [][]compiler.ReductionPlan{plan.Reductions, plan.Inherited} {
		for _, red := range reds {
			for _, v := range red.Vars {
				d.reductions = append(d.reductions, reductionCode{op: red.Op, ref: l.slot(v.Bind)})
			}
		}
	}
	for _, v := range plan.Free {
		d.free = append(d.free, l.slot(v.Bind))
	}
	for _, v := range plan.PlainWrites {
		d.plainWrites = append(d.plainWrites, l.slot(v.Bind))
	}
	if f := plan.Loop; f != nil {
		d.shape = loopShape{start: l.expr(f.Start), bound: l.expr(f.Bound), op: f.Op, sign: f.Sign}
		if f.Step != nil {
			d.shape.stride = l.expr(f.Step)
		}
	}
}

// run executes the directive according to its plan; the directive
// statement's own step is the caller's.
func (d *dirCode) run(ex *exec) {
	plan := d.plan
	if plan == nil {
		// Unknown directives never pass compilation; defensive inline.
		d.body(ex)
		return
	}
	// if() clause: false means "run as if the construct were absent"
	// (host serial for compute, no-op for data/update).
	if d.cond != nil && !d.cond(ex).truthy() {
		switch plan.Kind {
		case compiler.KindComputeBlock, compiler.KindComputeLoop,
			compiler.KindHostParallel, compiler.KindHostLoop, compiler.KindLoop:
			d.body(ex)
		}
		return
	}

	switch plan.Kind {
	case compiler.KindNoop, compiler.KindInline, compiler.KindCritical, compiler.KindAtomic:
		// Region workers run one after another, so a critical or
		// atomic body is already exclusive.
		d.body(ex)
	case compiler.KindOnce:
		if ex.workerID == 0 {
			d.body(ex)
		}
	case compiler.KindData:
		releases := ex.applyDataOps(d.data, true)
		d.body(ex)
		ex.releaseData(releases)
	case compiler.KindEnterData:
		ex.applyDataOps(d.data, false)
	case compiler.KindExitData:
		ex.applyExitData(d.data)
	case compiler.KindUpdate:
		ex.applyUpdates(d.data)
	case compiler.KindComputeBlock, compiler.KindComputeLoop,
		compiler.KindHostParallel, compiler.KindHostLoop, compiler.KindLoop:
		ex.region(d)
	default:
		d.body(ex)
	}
}

// --- device data environment ---------------------------------------

// structuredRelease records the exit action of a structured data
// region or compute construct.
type structuredRelease struct {
	host    *block
	varName string
	copyOut bool
	lo, n   int
}

// hostBlockOf resolves a clause variable to its host block; scalars
// return nil (scalar data clauses have no aggregate mapping in the
// simulation), null pointers trap.
func (ex *exec) hostBlockOf(sec sectionCode, trapNull bool) *block {
	c := ex.cellOf(sec.ref)
	if c == nil {
		return nil
	}
	switch c.v.k {
	case kRef:
		return c.v.b
	case kNull:
		if trapNull {
			panic(deviceFault(sec.name, "in data clause is a null pointer"))
		}
		return nil
	default:
		return nil
	}
}

// sectionBounds evaluates a section's range against a block.
func (ex *exec) sectionBounds(sec sectionCode, blk *block) (lo, n int) {
	if !blk.materialized {
		blk.materialize(testlang.Type{Base: "int"})
	}
	if sec.lo == nil {
		return 0, blk.length()
	}
	lo = int(sec.lo(ex).asInt())
	n = int(sec.n(ex).asInt())
	if lo < 0 || n < 0 || lo+n > blk.length() {
		panic(trapSignal{kind: "device-fault", rc: 1,
			msg: "FATAL ERROR: data transfer for '" + sec.name + "' is out of bounds"})
	}
	return lo, n
}

// ensurePresent returns the device mirror for a host block, creating
// it (and optionally copying host data in) when absent. Refcounting
// follows the OpenACC present_or_* semantics: an already-present block
// is reused without a fresh copy.
func (in *interp) ensurePresent(host *block, name string, copyIn bool, lo, n int) *block {
	if e, ok := in.presence[host]; ok {
		e.refcount++
		return e.dev
	}
	dev := &block{dims: host.dims, onDevice: true, name: name}
	dev.setElem(host.elem, host.length())
	if copyIn {
		dev.copyFrom(host, lo, n)
	}
	in.presence[host] = &presenceEntry{dev: dev, refcount: 1}
	return dev
}

func (in *interp) lookupPresent(host *block) (*block, bool) {
	e, ok := in.presence[host]
	if !ok {
		return nil, false
	}
	return e.dev, true
}

// releaseOne decrements a presence refcount, copying the section back
// when requested, and frees the mirror at zero.
func (in *interp) releaseOne(host *block, copyOut bool, lo, n int) {
	e, ok := in.presence[host]
	if !ok {
		return
	}
	if copyOut {
		if lo+n > host.length() {
			n = host.length() - lo
		}
		if n > 0 {
			host.copyFrom(e.dev, lo, n)
		}
	}
	e.refcount--
	if e.refcount <= 0 {
		delete(in.presence, host)
	}
}

// applyDataOps processes enter-side data clauses. When structured is
// true it returns the matching exit actions.
func (ex *exec) applyDataOps(ops []dataOpCode, structured bool) []structuredRelease {
	var releases []structuredRelease
	for _, op := range ops {
		for _, sec := range op.secs {
			hb := ex.hostBlockOf(sec, op.mode != compiler.MPresent)
			if hb == nil {
				// Scalar clause variable: presence checks pass (scalars
				// are firstprivate-by-default), movement is a no-op.
				continue
			}
			lo, n := ex.sectionBounds(sec, hb)
			switch op.mode {
			case compiler.MCopyIn:
				ex.in.ensurePresent(hb, sec.name, true, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.name})
				}
			case compiler.MCopy:
				ex.in.ensurePresent(hb, sec.name, true, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.name, copyOut: true, lo: lo, n: n})
				}
			case compiler.MCopyOut:
				ex.in.ensurePresent(hb, sec.name, false, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.name, copyOut: true, lo: lo, n: n})
				}
			case compiler.MCreate:
				ex.in.ensurePresent(hb, sec.name, false, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.name})
				}
			case compiler.MPresent:
				if _, ok := ex.in.lookupPresent(hb); !ok {
					panic(deviceFault(sec.name, "was not found on device - please check the data clauses"))
				}
			case compiler.MDelete:
				ex.in.releaseOne(hb, false, 0, 0)
			case compiler.MUpdateHost, compiler.MUpdateDevice, compiler.MIgnore:
				// Update modes are handled by the update directive;
				// MIgnore clauses have no runtime effect.
			}
		}
	}
	return releases
}

// applyExitData processes "exit data" clauses: copyout then delete.
func (ex *exec) applyExitData(ops []dataOpCode) {
	for _, op := range ops {
		for _, sec := range op.secs {
			hb := ex.hostBlockOf(sec, false)
			if hb == nil {
				continue
			}
			lo, n := ex.sectionBounds(sec, hb)
			switch op.mode {
			case compiler.MCopyOut, compiler.MCopy:
				ex.in.releaseOne(hb, true, lo, n)
			default:
				ex.in.releaseOne(hb, false, 0, 0)
			}
		}
	}
}

// applyUpdates processes an update directive.
func (ex *exec) applyUpdates(ops []dataOpCode) {
	for _, op := range ops {
		for _, sec := range op.secs {
			hb := ex.hostBlockOf(sec, true)
			if hb == nil {
				continue
			}
			dev, ok := ex.in.lookupPresent(hb)
			if !ok {
				panic(deviceFault(sec.name, "in update directive was not found on device"))
			}
			lo, n := ex.sectionBounds(sec, hb)
			switch op.mode {
			case compiler.MUpdateHost:
				hb.copyFrom(dev, lo, n)
			case compiler.MUpdateDevice:
				dev.copyFrom(hb, lo, n)
			}
		}
	}
}

func (ex *exec) releaseData(releases []structuredRelease) {
	for i := len(releases) - 1; i >= 0; i-- {
		r := releases[i]
		ex.in.releaseOne(r.host, r.copyOut, r.lo, r.n)
	}
}

// --- compute regions -------------------------------------------------

// deviceBindings rebinds, in ex's own frame (fork), the aggregate
// variables the region body uses to their device mirrors, applying the
// dialect's implicit-mapping rules to unmapped aggregates.
func (ex *exec) deviceBindings(d *dirCode) []structuredRelease {
	var releases []structuredRelease
	for i, r := range d.free {
		name := d.plan.Free[i].Name
		c := ex.cellOf(r)
		if c == nil || (c.v.k != kRef && c.v.k != kNull) {
			continue
		}
		if c.v.k == kNull {
			// Null pointer entering a device region: OpenACC implicit
			// transfer faults; OpenMP carries the null pointer to the
			// device where dereferences trap.
			if d.dialect == spec.OpenACC {
				panic(deviceFault(name, "in implicit data clause is a null pointer"))
			}
			continue
		}
		host := c.v.b
		if host.freed {
			panic(segfault())
		}
		if dev, present := ex.in.lookupPresent(host); present {
			ex.rebind(r, &cell{v: c.v.on(dev)})
			continue
		}
		if d.dialect == spec.OpenACC {
			// Implicit copy for unmapped aggregates (OpenACC 2.7+
			// default for arrays in compute constructs). This is what
			// masks some "removed allocation clause" mutations.
			if !host.materialized {
				host.materialize(testlang.Type{Base: "int"})
			}
			dev := ex.in.ensurePresent(host, name, true, 0, host.length())
			ex.rebind(r, &cell{v: c.v.on(dev)})
			releases = append(releases, structuredRelease{host: host, varName: name, copyOut: true, lo: 0, n: host.length()})
			continue
		}
		// OpenMP 4.5: declared arrays (known size) are implicitly
		// mapped tofrom; heap pointers are firstprivate and unusable on
		// the device.
		if c.v.viewRank() > 0 {
			dev := ex.in.ensurePresent(host, name, true, 0, host.length())
			ex.rebind(r, &cell{v: c.v.on(dev)})
			releases = append(releases, structuredRelease{host: host, varName: name, copyOut: true, lo: 0, n: host.length()})
			continue
		}
		faultBlk := &block{materialized: true, onDevice: true, name: name}
		ex.rebind(r, &cell{v: refVal(ref{blk: faultBlk, off: 0})})
	}
	return releases
}

// region runs a compute construct, a host parallel region or a loop
// directive. A device construct entered from the host first enters the
// device data environment, on a fork of ex; then the construct's
// workers run (forkJoin). Per construct only the width, the work each
// worker runs and whether the workers copy the scalars the body writes
// unprotected differ (DESIGN.md tabulates them). A loop directive
// outside a compute block's driver and an omp parallel region (in a
// distributed loop, or outside every region) runs its loop inline.
func (ex *exec) region(d *dirCode) {
	kind := d.plan.Kind
	// A loop directive's loop is shared among the workers of an omp
	// parallel region around it, each running its own chunk.
	shared := kind == compiler.KindLoop && ex.redundant && ex.regionWidth > 1
	if kind == compiler.KindLoop && !shared && !(ex.inDevice && ex.regionWidth <= 1) {
		d.body(ex)
		return
	}
	base := ex
	var releases, implicit []structuredRelease
	if d.plan.Device && !ex.inDevice {
		releases = ex.applyDataOps(d.data, true)
		base = ex.fork()
		implicit = base.deviceBindings(d)
		base.inDevice = true
	}
	owned := base != ex
	switch kind {
	case compiler.KindComputeBlock:
		base.forkJoin(d, 1, false, owned, func(wEx *exec, _ int) {
			wEx.redundant = false
			d.body(wEx)
		})
	case compiler.KindHostParallel:
		base.forkJoin(d, base.workerCount(d), true, owned, func(wEx *exec, _ int) {
			wEx.redundant = true
			d.body(wEx)
		})
	default:
		spec, ok := d.shape.analyze(base)
		switch {
		case !ok:
			// A zero stride: the loop runs whole, once.
			if !shared || ex.workerID == 0 {
				d.loop.run(base)
			}
		case shared:
			// The chunk's fork runs as the region worker it is on.
			id, width := ex.workerID, ex.regionWidth
			base.forkJoin(d, 1, false, owned, func(cEx *exec, _ int) {
				cEx.workerID, cEx.regionWidth = id, width
				lo, hi := chunk(spec.count, width, id)
				cEx.runChunk(d.loop, spec, lo, hi)
			})
		default:
			w := base.workerCount(d)
			if spec.count == 0 {
				break
			}
			w = int(min(int64(w), spec.count))
			base.forkJoin(d, w, true, owned, func(wEx *exec, id int) {
				wEx.redundant = false
				lo, hi := chunk(spec.count, w, id)
				wEx.runChunk(d.loop, spec, lo, hi)
			})
		}
	}
	ex.releaseData(implicit)
	ex.releaseData(releases)
}

// forkJoin runs work on w workers, one after another on the calling
// goroutine, so a run's output and step count never depend on a
// schedule. Worker id runs as worker id of w on a fork of ex (on ex
// itself when it is the only one and owned says ex is the region's own
// fork), with d's private and firstprivate variables bound to cells of
// its own, with copies of the scalars d's body writes unprotected when
// privatize is set, and with d's reduction variables bound to
// accumulators set to the operator's identity. The accumulators fold
// into the variables in worker order once every worker has run. Every
// worker runs even after an earlier one traps; the first trap is then
// re-raised.
func (ex *exec) forkJoin(d *dirCode, w int, privatize, owned bool, work func(wEx *exec, id int)) {
	if w > 1 {
		// A sweep's execute and judge stages share few Ps, and a run
		// never blocks. Without a yield point here the judge stage
		// starves while programs run: its batches grow and every
		// judge call waits longer. A region of width > 1 is where a
		// program with real parallelism would park on its workers.
		runtime.Gosched()
	}
	// vars holds each reduction variable's cell as the region found it,
	// nil for a name that binds none, and accs worker id's accumulator
	// for reduction i at id*n+i.
	n := len(d.reductions)
	var vars []*cell
	var accs []cell
	if n > 0 {
		vars, accs = make([]*cell, n), make([]cell, w*n)
		for i, red := range d.reductions {
			if vars[i] = ex.cellOf(red.ref); vars[i] != nil {
				for id := 0; id < w; id++ {
					accs[id*n+i].v = identity(red.op, vars[i].v.k == kFloat)
				}
			}
		}
	}
	var first any
	for id := 0; id < w; id++ {
		wEx := ex
		if w > 1 || !owned {
			wEx = ex.fork()
		}
		wEx.workerID, wEx.regionWidth = id, w
		wEx.bindPrivates(d)
		if privatize {
			wEx.privatizeScalars(d.plainWrites)
		}
		for i, red := range d.reductions {
			if vars[i] != nil {
				wEx.rebind(red.ref, &accs[id*n+i])
			}
		}
		if p := runWorker(work, wEx, id); p != nil && first == nil {
			first = p
		}
	}
	if first != nil {
		panic(first)
	}
	for i, red := range d.reductions {
		if v := vars[i]; v != nil {
			for id := 0; id < w; id++ {
				v.v = combine(red.op, v.v, accs[id*n+i].v)
			}
		}
	}
}

// runWorker runs work(wEx, id), returning what it panicked with, if
// anything.
func runWorker(work func(*exec, int), wEx *exec, id int) (p any) {
	defer func() { p = recover() }()
	work(wEx, id)
	return nil
}

// bindPrivates binds private/firstprivate clause variables to fresh
// cells in ex's own frame (fork).
func (ex *exec) bindPrivates(d *dirCode) {
	for _, r := range d.privates {
		if c := ex.cellOf(r); c != nil {
			ex.rebind(r, &cell{v: zeroLike(c.v)})
		}
	}
	for _, r := range d.firstprivates {
		if c := ex.cellOf(r); c != nil {
			ex.rebind(r, &cell{v: c.v})
		}
	}
}

func zeroLike(v value) value {
	switch v.k {
	case kFloat:
		return floatVal(0)
	case kRef, kNull:
		return nullVal()
	default:
		return intVal(0)
	}
}

// workerCount resolves the region width.
func (ex *exec) workerCount(d *dirCode) int {
	w := ex.in.opts.Workers
	if d.nworkers != nil {
		if n := int(d.nworkers(ex).asInt()); n > 0 {
			w = n
		}
	}
	if w > maxRegionWorkers {
		w = maxRegionWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// privatizeScalars gives each worker private copies of scalars the
// body writes outside protected constructs (firstprivate-initialised),
// the simulation's race-free model of default data-sharing for the
// well-formed tests the corpus emits.
func (ex *exec) privatizeScalars(refs []varRef) {
	for _, r := range refs {
		if c := ex.cellOf(r); c != nil && c.v.k != kRef {
			ex.rebind(r, &cell{v: c.v})
		}
	}
}

// loopSpec is the analysed canonical form of a work-shared loop.
type loopSpec struct {
	start int64
	step  int64
	count int64
}

// loopShape is a loop directive's canonical form (compiler.LoopForm)
// lowered. Which expressions give the start, bound and stride is
// static; their values are not, so analyze evaluates them per
// execution.
type loopShape struct {
	// stride is nil for ++ and --.
	start, bound, stride evalFn
	// op is the condition's comparison with the variable on its left,
	// sign the step's direction: -1 for "--" and "-=", else 1.
	op   string
	sign int64
}

// analyze evaluates the loop's start, bound and stride and computes
// its trip count; ok is false for a zero stride, which only a run can
// show, and the loop then runs whole on one worker.
func (s *loopShape) analyze(ex *exec) (spec loopSpec, ok bool) {
	spec.start = s.start(ex).asInt()
	bound := s.bound(ex).asInt()
	spec.step = s.sign
	if s.stride != nil {
		spec.step = s.sign * s.stride(ex).asInt()
	}
	if spec.step == 0 {
		return spec, false
	}
	switch s.op {
	case "<":
		spec.count = ceilDiv(bound-spec.start, spec.step)
	case "<=":
		spec.count = ceilDiv(bound-spec.start+1, spec.step)
	case ">":
		spec.count = ceilDiv(spec.start-bound, -spec.step)
	case ">=":
		spec.count = ceilDiv(spec.start-bound+1, -spec.step)
	default: // "!="
		spec.count = (bound - spec.start) / spec.step
	}
	if spec.count < 0 {
		spec.count = 0
	}
	return spec, true
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if b < 0 {
		a, b = -a, -b
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// chunk returns worker k's contiguous [lo,hi) slice of n iterations.
func chunk(n int64, workers, k int) (lo, hi int64) {
	per := n / int64(workers)
	rem := n % int64(workers)
	lo = int64(k)*per + min(int64(k), rem)
	size := per
	if int64(k) < rem {
		size++
	}
	return lo, lo + size
}

// runChunk executes iterations [lo,hi) of an analysed loop on ex's own
// frame (fork): its variable is a cell of the chunk's.
func (ex *exec) runChunk(loop *forLoop, spec loopSpec, lo, hi int64) {
	iv := &cell{v: intVal(0)}
	ex.rebind(loop.iv, iv)
	if loop.kern != nil && loop.kern.chunk(ex, iv, spec, lo, hi) {
		return
	}
	for i := lo; i < hi; i++ {
		iv.v = intVal(spec.start + i*spec.step)
		if loop.body(ex) == flowBreak {
			return // break inside a work-shared loop: stop this chunk
		}
	}
}

// --- reductions -------------------------------------------------------

// identity returns the reduction identity for op.
func identity(op string, isFloat bool) value {
	switch op {
	case "+":
		if isFloat {
			return floatVal(0)
		}
		return intVal(0)
	case "*":
		if isFloat {
			return floatVal(1)
		}
		return intVal(1)
	case "max":
		if isFloat {
			return floatVal(math.Inf(-1))
		}
		return intVal(math.MinInt64)
	case "min":
		if isFloat {
			return floatVal(math.Inf(1))
		}
		return intVal(math.MaxInt64)
	case "&&":
		return intVal(1)
	case "||":
		return intVal(0)
	default:
		return intVal(0)
	}
}

func combine(op string, a, b value) value {
	switch op {
	case "+", "*":
		return arith(op, a, b)
	case "max":
		if compare(">", b, a).truthy() {
			return b
		}
		return a
	case "min":
		if compare("<", b, a).truthy() {
			return b
		}
		return a
	case "&&":
		return boolToInt(a.truthy() && b.truthy())
	case "||":
		return boolToInt(a.truthy() || b.truthy())
	default:
		return a
	}
}

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
	// loop is the body when it is a for statement, shape its canonical
	// form; loop is nil otherwise.
	loop  *forLoop
	shape loopShape
	// The variables the directive binds or looks up, resolved where it
	// stands (the body's own declarations are out of reach): free and
	// private are the plan's Free and PlainWrites; privates and
	// firstprivates are the clauses' variables, reductions the
	// reduction clauses'.
	free, private           []varRef
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
	fs, isFor := ds.Body.(*testlang.ForStmt)
	if d.plan != nil {
		l.planCode(d, fs)
	}
	if !isFor {
		d.body = l.stmt(ds.Body)
		return d
	}
	d.loop = l.forLoop(fs, &d.shape)
	loop := d.loop
	d.body = func(ex *exec) flow {
		ex.in.step()
		return loop.run(ex)
	}
	return d
}

// planCode lowers what a planned directive evaluates and binds before
// its body runs. fs is its body when that is a for statement.
func (l *lowerer) planCode(d *dirCode, fs *testlang.ForStmt) {
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
	for _, red := range plan.Reductions {
		for _, v := range red.Vars {
			d.reductions = append(d.reductions, reductionCode{op: red.Op, ref: l.slot(v.Bind)})
		}
	}
	for _, v := range plan.Free {
		d.free = append(d.free, l.slot(v.Bind))
	}
	for _, v := range plan.PlainWrites {
		d.private = append(d.private, l.slot(v.Bind))
	}
	switch plan.Kind {
	case compiler.KindComputeLoop, compiler.KindHostLoop, compiler.KindLoop:
		if fs != nil {
			d.shape = l.loopShape(fs)
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
	case compiler.KindComputeBlock:
		ex.execComputeBlock(d)
	case compiler.KindComputeLoop, compiler.KindHostLoop:
		ex.execParallelLoop(d)
	case compiler.KindHostParallel:
		ex.execHostParallel(d)
	case compiler.KindLoop:
		// Orphaned / nested loop directive. Three situations:
		//  - inside a redundant host region (omp parallel): each worker
		//    executes its chunk of the iterations (work-sharing);
		//  - inside a single-driver device block (acc parallel/kernels,
		//    omp target): this directive is the fork-join point;
		//  - inside an already-distributed loop (gang loop + nested
		//    vector loop): the loop runs inline per outer iteration.
		switch {
		case ex.redundant && ex.regionWidth > 1:
			ex.execChunkedLoop(d)
		case ex.inDevice && ex.regionWidth <= 1:
			ex.execParallelLoop(d)
		default:
			d.body(ex)
		}
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

// execComputeBlock runs an offloaded structured block. The block body
// runs on a single driver thread (gang-redundant execution is not
// modelled); nested loop directives fork-join their own workers.
func (ex *exec) execComputeBlock(d *dirCode) {
	releases := ex.applyDataOps(d.data, true)
	regionEx := ex.fork()
	implicit := regionEx.deviceBindings(d)
	regionEx.inDevice = true
	regionEx.redundant = false
	regionEx.workerID = 0
	regionEx.regionWidth = 1
	regionEx.bindPrivates(d)
	d.body(regionEx)
	ex.releaseData(implicit)
	ex.releaseData(releases)
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

// execHostParallel runs "omp parallel": the body once per worker.
func (ex *exec) execHostParallel(d *dirCode) {
	w := ex.workerCount(d)
	reds := ex.newReductionSet(d)
	runWorkers(w, func(id int) {
		wEx := ex.worker(d, id, w)
		wEx.redundant = true
		reds.bindWorker(wEx, id)
		d.body(wEx)
	})
	reds.fold()
}

// worker returns worker id's exec for a region of width w, on a frame
// of its own with the clause and privatized variables bound.
func (ex *exec) worker(d *dirCode, id, w int) *exec {
	wEx := ex.fork()
	wEx.workerID = id
	wEx.regionWidth = w
	wEx.bindPrivates(d)
	wEx.privatizeScalars(d.private)
	return wEx
}

// runWorkers executes body(id) for id in [0,w) one after another on
// the calling goroutine, so a run's output and step count never depend
// on a schedule. Every worker runs even after an earlier one traps;
// the first trap is then re-raised.
func runWorkers(w int, body func(id int)) {
	if w > 1 {
		// A sweep's execute and judge stages share few Ps, and a run
		// never blocks. Without a yield point here the judge stage
		// starves while programs run: its batches grow and every
		// judge call waits longer. A region of width > 1 is where a
		// program with real parallelism would park on its workers.
		runtime.Gosched()
	}
	var first any
	for id := 0; id < w; id++ {
		if p := runWorker(body, id); p != nil && first == nil {
			first = p
		}
	}
	if first != nil {
		panic(first)
	}
}

// runWorker runs body(id), returning what it panicked with, if
// anything.
func runWorker(body func(id int), id int) (p any) {
	defer func() { p = recover() }()
	body(id)
	return nil
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

// execParallelLoop runs a combined compute+loop construct: iterations
// distributed over workers, with device data setup when the construct
// is a device one.
func (ex *exec) execParallelLoop(d *dirCode) {
	if d.loop == nil {
		d.body(ex)
		return
	}
	var releases, implicit []structuredRelease
	base := ex
	if d.plan.Device && !ex.inDevice {
		releases = ex.applyDataOps(d.data, true)
		base = ex.fork()
		implicit = base.deviceBindings(d)
		base.inDevice = true
	}
	spec, canonical := d.shape.analyze(base)
	if !canonical {
		d.loop.run(base)
	} else {
		base.runDistributed(d, spec)
	}
	ex.releaseData(implicit)
	ex.releaseData(releases)
}

// execChunkedLoop work-shares a nested loop directive among the
// workers of an enclosing host parallel region: worker k executes the
// k-th chunk. A reduction variable gets an accumulator per chunk,
// folded into the variable the worker sees once the chunk is done.
func (ex *exec) execChunkedLoop(d *dirCode) {
	if d.loop == nil {
		d.body(ex)
		return
	}
	spec, canonical := d.shape.analyze(ex)
	if !canonical {
		// Non-canonical loops under work-sharing were rejected at
		// compile time; execute on worker 0 for robustness.
		if ex.workerID == 0 {
			d.loop.run(ex)
		}
		return
	}
	lo, hi := chunk(spec.count, ex.regionWidth, ex.workerID)
	cEx := ex.fork()
	reds := cEx.newReductionSet(d)
	reds.bindWorker(cEx, ex.workerID)
	cEx.runChunk(d.loop, spec, lo, hi)
	if len(reds.items) == 0 {
		return
	}
	reds.fold()
}

// loopSpec is the analysed canonical form of a work-shared loop.
type loopSpec struct {
	start int64
	step  int64
	count int64
}

// loopShape is a loop directive's for statement analysed for its
// canonical form at lowering time. Which expressions give the start,
// bound and stride is static; their values are not, so analyze
// evaluates them per execution, exactly those the analysis reads
// before it can tell that a loop is not canonical.
type loopShape struct {
	// varName is the loop variable, bound to varBind.
	varName string
	varBind testlang.Binding
	// start is nil when the init is not canonical; bound is nil when
	// the condition is not; stride is the step expression of a
	// "v += e" or "v -= e" post, nil for ++ and --.
	start, bound, stride evalFn
	// sign is the step's direction: -1 for "--" and "-=", else 1.
	sign int64
	// condOp is the condition's comparison operator.
	condOp string
	// ok is false when the post or the condition's operator is not
	// canonical.
	ok bool
}

func (l *lowerer) loopShape(loop *testlang.ForStmt) loopShape {
	var s loopShape
	switch init := loop.Init.(type) {
	case *testlang.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return s
		}
		s.varName, s.varBind = init.Decls[0].Name, init.Decls[0].Bind
		if init.Decls[0].Type.IsFloat() {
			return s
		}
		s.start = l.expr(init.Decls[0].Init)
	case *testlang.ExprStmt:
		asg, ok := init.X.(*testlang.AssignExpr)
		if !ok || asg.Op != "=" {
			return s
		}
		id, ok := asg.L.(*testlang.IdentExpr)
		if !ok {
			return s
		}
		s.varName, s.varBind = id.Name, id.Bind
		s.start = l.expr(asg.R)
	default:
		return s
	}

	cond, ok := loop.Cond.(*testlang.BinaryExpr)
	if !ok {
		return s
	}
	condVar, ok := cond.L.(*testlang.IdentExpr)
	if !ok || condVar.Name != s.varName {
		return s
	}
	s.bound = l.expr(cond.R)
	s.condOp = cond.Op

	s.sign = 1
	switch post := loop.Post.(type) {
	case *testlang.UnaryExpr:
		if post.Op == "--" {
			s.sign = -1
		} else if post.Op != "++" {
			return s
		}
	case *testlang.PostfixExpr:
		if post.Op == "--" {
			s.sign = -1
		} else if post.Op != "++" {
			return s
		}
	case *testlang.AssignExpr:
		id, ok := post.L.(*testlang.IdentExpr)
		if !ok || id.Name != s.varName {
			return s
		}
		s.stride = l.expr(post.R)
		switch post.Op {
		case "+=":
		case "-=":
			s.sign = -1
		default:
			return s
		}
	default:
		return s
	}
	switch s.condOp {
	case "<", "<=", ">", ">=", "!=":
		s.ok = true
	}
	return s
}

// analyze evaluates the loop's start, bound and stride and computes
// its trip count; ok=false falls back to sequential execution.
func (s *loopShape) analyze(ex *exec) (loopSpec, bool) {
	var spec loopSpec
	if s.start == nil {
		return spec, false
	}
	spec.start = s.start(ex).asInt()
	if s.bound == nil {
		return spec, false
	}
	bound := s.bound(ex).asInt()
	spec.step = s.sign
	if s.stride != nil {
		spec.step = s.sign * s.stride(ex).asInt()
	}
	if !s.ok || spec.step == 0 {
		return spec, false
	}
	switch s.condOp {
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
	lo = int64(k)*per + min64(int64(k), rem)
	size := per
	if int64(k) < rem {
		size++
	}
	return lo, lo + size
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// runDistributed forks workers over the iteration space.
func (ex *exec) runDistributed(d *dirCode, spec loopSpec) {
	w := ex.workerCount(d)
	if spec.count < int64(w) && spec.count > 0 {
		w = int(spec.count)
	}
	if spec.count == 0 {
		return
	}
	reds := ex.newReductionSet(d)
	runWorkers(w, func(id int) {
		lo, hi := chunk(spec.count, w, id)
		wEx := ex.worker(d, id, w)
		wEx.redundant = false
		reds.bindWorker(wEx, id)
		wEx.runChunk(d.loop, spec, lo, hi)
	})
	reds.fold()
}

// runChunk executes iterations [lo,hi) of an analysed loop on ex's own
// frame (fork): its variable is a cell of the chunk's. Under nested work-sharing, privatization was
// handled by the enclosing region.
func (ex *exec) runChunk(loop *forLoop, spec loopSpec, lo, hi int64) {
	iv := &cell{v: intVal(0)}
	ex.rebind(loop.iv, iv)
	for i := lo; i < hi; i++ {
		iv.v = intVal(spec.start + i*spec.step)
		if loop.body(ex) == flowBreak {
			return // break inside a work-shared loop: stop this chunk
		}
	}
}

// --- reductions -------------------------------------------------------

// reductionSet manages per-worker accumulators for a construct's
// reduction clauses.
type reductionSet struct {
	items []reductionItem
}

type reductionItem struct {
	op      string
	ref     varRef
	host    *cell
	workers []*cell
	isFloat bool
}

func (ex *exec) newReductionSet(d *dirCode) *reductionSet {
	rs := &reductionSet{}
	for _, red := range d.reductions {
		host := ex.cellOf(red.ref)
		if host == nil {
			continue
		}
		rs.items = append(rs.items, reductionItem{
			op:      red.op,
			ref:     red.ref,
			host:    host,
			isFloat: host.v.k == kFloat,
			workers: make([]*cell, maxRegionWorkers),
		})
	}
	return rs
}

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

// bindWorker binds fresh accumulators for worker id in wEx's own
// frame.
func (rs *reductionSet) bindWorker(wEx *exec, id int) {
	for i := range rs.items {
		it := &rs.items[i]
		c := &cell{v: identity(it.op, it.isFloat)}
		it.workers[id] = c
		wEx.rebind(it.ref, c)
	}
}

// fold combines worker accumulators into the host cells, in worker
// order for deterministic floating-point results.
func (rs *reductionSet) fold() {
	for i := range rs.items {
		it := &rs.items[i]
		acc := it.host.v
		for _, wc := range it.workers {
			if wc == nil {
				continue
			}
			acc = combine(it.op, acc, wc.v)
		}
		it.host.v = acc
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

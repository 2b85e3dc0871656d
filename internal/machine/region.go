package machine

import (
	"math"
	"sync"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// maxRegionWorkers caps requested parallelism (num_gangs(100000) must
// not spawn 100000 goroutines).
const maxRegionWorkers = 64

// execDirective interprets one directive statement according to its
// compiled plan.
func (ex *exec) execDirective(ds *testlang.DirectiveStmt) {
	plan := ex.in.obj.Plans[ds]
	if plan == nil {
		// Unknown directives never pass compilation; defensive inline.
		ex.execStmt(ds.Body)
		return
	}
	// if() clause: false means "run as if the construct were absent"
	// (host serial for compute, no-op for data/update).
	if plan.If != nil && !ex.eval(plan.If).truthy() {
		switch plan.Kind {
		case compiler.KindComputeBlock, compiler.KindComputeLoop,
			compiler.KindHostParallel, compiler.KindHostLoop, compiler.KindLoop:
			ex.execStmt(ds.Body)
		}
		return
	}

	switch plan.Kind {
	case compiler.KindNoop:
		if ds.Body != nil {
			ex.execStmt(ds.Body)
		}
	case compiler.KindInline:
		ex.execStmt(ds.Body)
	case compiler.KindOnce:
		if ex.workerID == 0 {
			ex.in.atomicMu.Lock()
			defer ex.in.atomicMu.Unlock()
			ex.execStmt(ds.Body)
		}
	case compiler.KindCritical:
		ex.in.atomicMu.Lock()
		defer ex.in.atomicMu.Unlock()
		ex.execStmt(ds.Body)
	case compiler.KindAtomic:
		ex.in.atomicMu.Lock()
		defer ex.in.atomicMu.Unlock()
		ex.execStmt(ds.Body)
	case compiler.KindData:
		releases := ex.applyDataOps(plan.Data, true)
		ex.execStmt(ds.Body)
		ex.releaseData(releases)
	case compiler.KindEnterData:
		ex.applyDataOps(plan.Data, false)
	case compiler.KindExitData:
		ex.applyExitData(plan.Data)
	case compiler.KindUpdate:
		ex.applyUpdates(plan.Data)
	case compiler.KindComputeBlock:
		ex.execComputeBlock(ds, plan)
	case compiler.KindComputeLoop:
		ex.execParallelLoop(ds, plan)
	case compiler.KindHostParallel:
		ex.execHostParallel(ds, plan)
	case compiler.KindHostLoop:
		ex.execParallelLoop(ds, plan)
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
			ex.execChunkedLoop(ds, plan)
		case ex.inDevice && ex.regionWidth <= 1:
			ex.execParallelLoop(ds, plan)
		default:
			ex.execStmt(ds.Body)
		}
	default:
		ex.execStmt(ds.Body)
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
func (ex *exec) hostBlockOf(name string, trapNull bool) *block {
	c, ok := ex.env.lookup(name)
	if !ok {
		return nil
	}
	switch c.v.k {
	case kRef:
		return c.v.b
	case kNull:
		if trapNull {
			panic(deviceFault(name, "in data clause is a null pointer"))
		}
		return nil
	default:
		return nil
	}
}

// sectionBounds evaluates a section's range against a block.
func (ex *exec) sectionBounds(sec testlang.Section, blk *block) (lo, n int) {
	if !blk.materialized {
		blk.materialize(testlang.Type{Base: "int"})
	}
	if sec.Lo == nil {
		return 0, len(blk.cells)
	}
	lo = int(ex.eval(sec.Lo).asInt())
	n = int(ex.eval(sec.Len).asInt())
	if lo < 0 || n < 0 || lo+n > len(blk.cells) {
		panic(trapSignal{kind: "device-fault", rc: 1,
			msg: "FATAL ERROR: data transfer for '" + sec.Name + "' is out of bounds"})
	}
	return lo, n
}

// ensurePresent returns the device mirror for a host block, creating
// it (and optionally copying host data in) when absent. Refcounting
// follows the OpenACC present_or_* semantics: an already-present block
// is reused without a fresh copy.
func (in *interp) ensurePresent(host *block, name string, copyIn bool, lo, n int) *block {
	in.presenceMu.Lock()
	defer in.presenceMu.Unlock()
	if e, ok := in.presence[host]; ok {
		e.refcount++
		return e.dev
	}
	dev := &block{
		cells:        make([]value, len(host.cells)),
		elem:         host.elem,
		dims:         host.dims,
		materialized: true,
		onDevice:     true,
		name:         name,
	}
	zero := zeroValue(host.elem)
	for i := range dev.cells {
		dev.cells[i] = zero
	}
	if copyIn {
		copy(dev.cells[lo:lo+n], host.cells[lo:lo+n])
	}
	in.presence[host] = &presenceEntry{dev: dev, refcount: 1}
	return dev
}

func (in *interp) lookupPresent(host *block) (*block, bool) {
	in.presenceMu.Lock()
	defer in.presenceMu.Unlock()
	e, ok := in.presence[host]
	if !ok {
		return nil, false
	}
	return e.dev, true
}

// releaseOne decrements a presence refcount, copying the section back
// when requested, and frees the mirror at zero.
func (in *interp) releaseOne(host *block, copyOut bool, lo, n int) {
	in.presenceMu.Lock()
	defer in.presenceMu.Unlock()
	e, ok := in.presence[host]
	if !ok {
		return
	}
	if copyOut {
		if lo+n > len(host.cells) {
			n = len(host.cells) - lo
		}
		if n > 0 {
			copy(host.cells[lo:lo+n], e.dev.cells[lo:lo+n])
		}
	}
	e.refcount--
	if e.refcount <= 0 {
		delete(in.presence, host)
	}
}

// applyDataOps processes enter-side data clauses. When structured is
// true it returns the matching exit actions.
func (ex *exec) applyDataOps(ops []compiler.DataOp, structured bool) []structuredRelease {
	var releases []structuredRelease
	for _, op := range ops {
		for _, sec := range op.Sections {
			hb := ex.hostBlockOf(sec.Name, op.Mode != compiler.MPresent)
			if hb == nil {
				// Scalar clause variable: presence checks pass (scalars
				// are firstprivate-by-default), movement is a no-op.
				continue
			}
			lo, n := ex.sectionBounds(sec, hb)
			switch op.Mode {
			case compiler.MCopyIn:
				ex.in.ensurePresent(hb, sec.Name, true, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.Name})
				}
			case compiler.MCopy:
				ex.in.ensurePresent(hb, sec.Name, true, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.Name, copyOut: true, lo: lo, n: n})
				}
			case compiler.MCopyOut:
				ex.in.ensurePresent(hb, sec.Name, false, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.Name, copyOut: true, lo: lo, n: n})
				}
			case compiler.MCreate:
				ex.in.ensurePresent(hb, sec.Name, false, lo, n)
				if structured {
					releases = append(releases, structuredRelease{host: hb, varName: sec.Name})
				}
			case compiler.MPresent:
				if _, ok := ex.in.lookupPresent(hb); !ok {
					panic(deviceFault(sec.Name, "was not found on device - please check the data clauses"))
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
func (ex *exec) applyExitData(ops []compiler.DataOp) {
	for _, op := range ops {
		for _, sec := range op.Sections {
			hb := ex.hostBlockOf(sec.Name, false)
			if hb == nil {
				continue
			}
			lo, n := ex.sectionBounds(sec, hb)
			switch op.Mode {
			case compiler.MCopyOut, compiler.MCopy:
				ex.in.releaseOne(hb, true, lo, n)
			default:
				ex.in.releaseOne(hb, false, 0, 0)
			}
		}
	}
}

// applyUpdates processes an update directive.
func (ex *exec) applyUpdates(ops []compiler.DataOp) {
	for _, op := range ops {
		for _, sec := range op.Sections {
			hb := ex.hostBlockOf(sec.Name, true)
			if hb == nil {
				continue
			}
			dev, ok := ex.in.lookupPresent(hb)
			if !ok {
				panic(deviceFault(sec.Name, "in update directive was not found on device"))
			}
			lo, n := ex.sectionBounds(sec, hb)
			ex.in.presenceMu.Lock()
			switch op.Mode {
			case compiler.MUpdateHost:
				copy(hb.cells[lo:lo+n], dev.cells[lo:lo+n])
			case compiler.MUpdateDevice:
				copy(dev.cells[lo:lo+n], hb.cells[lo:lo+n])
			}
			ex.in.presenceMu.Unlock()
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

// deviceBindings builds the env overlay mapping aggregate variables
// referenced in the region body to their device mirrors, applying the
// dialect's implicit-mapping rules to unmapped aggregates.
func (ex *exec) deviceBindings(body testlang.Stmt, plan *compiler.DirPlan) (*env, []structuredRelease) {
	overlay := newEnv(ex.env)
	var releases []structuredRelease
	seen := map[string]bool{}
	for _, name := range aggregateVars(body, ex.env) {
		if seen[name] {
			continue
		}
		seen[name] = true
		c, _ := ex.env.lookup(name)
		if c.v.k == kNull {
			// Null pointer entering a device region: OpenACC implicit
			// transfer faults; OpenMP carries the null pointer to the
			// device where dereferences trap.
			if ex.in.obj.Dialect == spec.OpenACC {
				panic(deviceFault(name, "in implicit data clause is a null pointer"))
			}
			continue
		}
		if c.v.k != kRef {
			continue
		}
		host := c.v.b
		if host.freed {
			panic(segfault())
		}
		if dev, present := ex.in.lookupPresent(host); present {
			overlay.declare(name, c.v.on(dev))
			continue
		}
		if ex.in.obj.Dialect == spec.OpenACC {
			// Implicit copy for unmapped aggregates (OpenACC 2.7+
			// default for arrays in compute constructs). This is what
			// masks some "removed allocation clause" mutations.
			if !host.materialized {
				host.materialize(testlang.Type{Base: "int"})
			}
			dev := ex.in.ensurePresent(host, name, true, 0, len(host.cells))
			overlay.declare(name, c.v.on(dev))
			releases = append(releases, structuredRelease{host: host, varName: name, copyOut: true, lo: 0, n: len(host.cells)})
			continue
		}
		// OpenMP 4.5: declared arrays (known size) are implicitly
		// mapped tofrom; heap pointers are firstprivate and unusable on
		// the device.
		if c.v.viewRank() > 0 {
			dev := ex.in.ensurePresent(host, name, true, 0, len(host.cells))
			overlay.declare(name, c.v.on(dev))
			releases = append(releases, structuredRelease{host: host, varName: name, copyOut: true, lo: 0, n: len(host.cells)})
			continue
		}
		faultBlk := &block{materialized: true, onDevice: true, name: name}
		overlay.declare(name, refVal(ref{blk: faultBlk, off: 0}))
	}
	return overlay, releases
}

// aggregateVars lists names in body that resolve to aggregates
// (arrays/pointers) in the enclosing environment.
func aggregateVars(body testlang.Stmt, e *env) []string {
	var names []string
	seen := map[string]bool{}
	local := declaredIn(body)
	testlang.WalkExprs(body, func(x testlang.Expr) {
		id, ok := x.(*testlang.IdentExpr)
		if !ok || seen[id.Name] || local[id.Name] {
			return
		}
		if c, found := e.lookup(id.Name); found {
			if c.v.k == kRef || c.v.k == kNull {
				seen[id.Name] = true
				names = append(names, id.Name)
			}
		}
	})
	return names
}

// declaredIn returns the set of names declared anywhere inside body.
func declaredIn(body testlang.Stmt) map[string]bool {
	out := map[string]bool{}
	testlang.Walk(body, func(s testlang.Stmt) bool {
		if ds, ok := s.(*testlang.DeclStmt); ok {
			for _, d := range ds.Decls {
				out[d.Name] = true
			}
		}
		if fs, ok := s.(*testlang.ForStmt); ok {
			if ds, ok := fs.Init.(*testlang.DeclStmt); ok {
				for _, d := range ds.Decls {
					out[d.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// execComputeBlock runs an offloaded structured block. The block body
// runs on a single driver thread (gang-redundant execution is not
// modelled); nested loop directives fork-join their own workers.
func (ex *exec) execComputeBlock(ds *testlang.DirectiveStmt, plan *compiler.DirPlan) {
	releases := ex.applyDataOps(plan.Data, true)
	overlay, implicit := ex.deviceBindings(ds.Body, plan)
	regionEx := ex.child(overlay)
	regionEx.inDevice = true
	regionEx.redundant = false
	regionEx.workerID = 0
	regionEx.regionWidth = 1
	regionEx.bindPrivates(plan, overlay)
	regionEx.execStmt(ds.Body)
	ex.releaseData(implicit)
	ex.releaseData(releases)
}

// bindPrivates installs private/firstprivate clause bindings.
func (ex *exec) bindPrivates(plan *compiler.DirPlan, into *env) {
	for _, name := range plan.Private {
		if c, ok := ex.env.lookup(name); ok {
			into.declare(name, zeroLike(c.v))
		}
	}
	for _, name := range plan.FirstPrivate {
		if c, ok := ex.env.lookup(name); ok {
			into.declare(name, c.v)
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
func (ex *exec) execHostParallel(ds *testlang.DirectiveStmt, plan *compiler.DirPlan) {
	w := ex.workerCount(plan)
	use := collectUses(ds.Body)
	reds := newReductionSet(ex, plan, use)
	ex.runWorkers(w, func(id int, bud *budget) {
		wEnv := newEnv(ex.env)
		wEx := ex.child(wEnv)
		wEx.bud = bud
		wEx.workerID = id
		wEx.regionWidth = w
		wEx.redundant = true
		wEx.bindPrivates(plan, wEnv)
		ex.privatizeScalars(use, wEnv)
		reds.bindWorker(wEnv, id)
		wEx.execStmt(ds.Body)
	})
	reds.fold(ex)
}

// runWorkers executes body(id, bud) for id in [0,w), one goroutine
// per worker, re-raising the first worker panic after all finish.
// Each worker gets its own step budget and returns what it did not
// spend, trap or not; the forking exec returns its unspent steps
// first, so workers run one after another trap at exactly the step a
// single counter would. Under race-detector builds the workers run
// serially: the corpus contains deliberately racy test programs whose
// shared writes the detector would flag inside the simulator (see
// race_on.go).
func (ex *exec) runWorkers(w int, body func(id int, bud *budget)) {
	ex.bud.release()
	panics := make(chan any, w)
	guarded := func(id int) {
		bud := &budget{in: ex.in}
		defer func() {
			bud.release()
			if r := recover(); r != nil {
				panics <- r
			}
		}()
		body(id, bud)
	}
	if raceEnabled || w == 1 {
		for id := 0; id < w; id++ {
			guarded(id)
		}
	} else {
		var wg sync.WaitGroup
		for id := 0; id < w; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				guarded(id)
			}(id)
		}
		wg.Wait()
	}
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// workerCount resolves the region width.
func (ex *exec) workerCount(plan *compiler.DirPlan) int {
	w := ex.in.opts.Workers
	if plan.NumWorkers != nil {
		if n := int(ex.eval(plan.NumWorkers).asInt()); n > 0 {
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
func (ex *exec) privatizeScalars(use *useSet, into *env) {
	for name := range use.plainWrites {
		if _, already := into.local(name); already {
			continue
		}
		if c, ok := ex.env.lookup(name); ok && c.v.k != kRef {
			into.declare(name, c.v)
		}
	}
}

// execParallelLoop runs a combined compute+loop construct: iterations
// distributed over workers, with device data setup when the construct
// is a device one.
func (ex *exec) execParallelLoop(ds *testlang.DirectiveStmt, plan *compiler.DirPlan) {
	loop, ok := ds.Body.(*testlang.ForStmt)
	if !ok {
		ex.execStmt(ds.Body)
		return
	}
	var releases, implicit []structuredRelease
	base := ex
	if plan.Device && !ex.inDevice {
		releases = ex.applyDataOps(plan.Data, true)
		overlay, imp := ex.deviceBindings(ds.Body, plan)
		implicit = imp
		base = ex.child(overlay)
		base.inDevice = true
	}
	spec, canonical := base.analyzeLoop(loop)
	if !canonical {
		base.execFor(loop)
	} else {
		base.runDistributed(loop, spec, plan)
	}
	ex.releaseData(implicit)
	ex.releaseData(releases)
}

// execChunkedLoop work-shares a nested loop directive among the
// workers of an enclosing host parallel region: worker k executes the
// k-th chunk.
func (ex *exec) execChunkedLoop(ds *testlang.DirectiveStmt, plan *compiler.DirPlan) {
	loop, ok := ds.Body.(*testlang.ForStmt)
	if !ok {
		ex.execStmt(ds.Body)
		return
	}
	spec, canonical := ex.analyzeLoop(loop)
	if !canonical {
		// Non-canonical loops under work-sharing were rejected at
		// compile time; execute on worker 0 for robustness.
		if ex.workerID == 0 {
			ex.execFor(loop)
		}
		return
	}
	lo, hi := chunk(spec.count, ex.regionWidth, ex.workerID)
	ex.runChunk(loop, spec, plan, lo, hi, true)
}

// loopSpec is the analysed canonical form of a work-shared loop.
type loopSpec struct {
	varName string
	start   int64
	step    int64
	count   int64
	declTyp testlang.Type
}

// analyzeLoop extracts the canonical form; ok=false falls back to
// sequential execution.
func (ex *exec) analyzeLoop(loop *testlang.ForStmt) (loopSpec, bool) {
	var s loopSpec
	switch init := loop.Init.(type) {
	case *testlang.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return s, false
		}
		s.varName = init.Decls[0].Name
		s.declTyp = init.Decls[0].Type
		if s.declTyp.IsFloat() {
			return s, false
		}
		s.start = ex.eval(init.Decls[0].Init).asInt()
	case *testlang.ExprStmt:
		asg, ok := init.X.(*testlang.AssignExpr)
		if !ok || asg.Op != "=" {
			return s, false
		}
		id, ok := asg.L.(*testlang.IdentExpr)
		if !ok {
			return s, false
		}
		s.varName = id.Name
		s.declTyp = testlang.Type{Base: "int"}
		s.start = ex.eval(asg.R).asInt()
	default:
		return s, false
	}

	cond, ok := loop.Cond.(*testlang.BinaryExpr)
	if !ok {
		return s, false
	}
	condVar, ok := cond.L.(*testlang.IdentExpr)
	if !ok || condVar.Name != s.varName {
		return s, false
	}
	bound := ex.eval(cond.R).asInt()

	s.step = 1
	switch post := loop.Post.(type) {
	case *testlang.UnaryExpr:
		if post.Op == "--" {
			s.step = -1
		} else if post.Op != "++" {
			return s, false
		}
	case *testlang.PostfixExpr:
		if post.Op == "--" {
			s.step = -1
		} else if post.Op != "++" {
			return s, false
		}
	case *testlang.AssignExpr:
		id, ok := post.L.(*testlang.IdentExpr)
		if !ok || id.Name != s.varName {
			return s, false
		}
		d := ex.eval(post.R).asInt()
		switch post.Op {
		case "+=":
			s.step = d
		case "-=":
			s.step = -d
		default:
			return s, false
		}
	default:
		return s, false
	}
	if s.step == 0 {
		return s, false
	}

	switch cond.Op {
	case "<":
		s.count = ceilDiv(bound-s.start, s.step)
	case "<=":
		s.count = ceilDiv(bound-s.start+1, s.step)
	case ">":
		s.count = ceilDiv(s.start-bound, -s.step)
	case ">=":
		s.count = ceilDiv(s.start-bound+1, -s.step)
	case "!=":
		s.count = (bound - s.start) / s.step
	default:
		return s, false
	}
	if s.count < 0 {
		s.count = 0
	}
	return s, true
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
func (ex *exec) runDistributed(loop *testlang.ForStmt, spec loopSpec, plan *compiler.DirPlan) {
	w := ex.workerCount(plan)
	if spec.count < int64(w) && spec.count > 0 {
		w = int(spec.count)
	}
	if spec.count == 0 {
		return
	}
	use := collectUses(loop.Body)
	reds := newReductionSet(ex, plan, use)
	ex.runWorkers(w, func(id int, bud *budget) {
		lo, hi := chunk(spec.count, w, id)
		wEnv := newEnv(ex.env)
		wEx := ex.child(wEnv)
		wEx.bud = bud
		wEx.workerID = id
		wEx.regionWidth = w
		wEx.redundant = false
		wEx.bindPrivates(plan, wEnv)
		ex.privatizeScalars(use, wEnv)
		reds.bindWorker(wEnv, id)
		wEx.runChunk(loop, spec, plan, lo, hi, false)
	})
	reds.fold(ex)
}

// runChunk executes iterations [lo,hi) of an analysed loop. When
// shared is true (nested work-sharing), reductions and privatization
// were handled by the enclosing region.
func (ex *exec) runChunk(loop *testlang.ForStmt, spec loopSpec, plan *compiler.DirPlan, lo, hi int64, shared bool) {
	iterEnv := newEnv(ex.env)
	iterEx := ex.child(iterEnv)
	loopVar := iterEnv.declare(spec.varName, intVal(0))
	for i := lo; i < hi; i++ {
		loopVar.v = intVal(spec.start + i*spec.step)
		if iterEx.runBody(loop.Body) {
			return // break inside a work-shared loop: stop this chunk
		}
	}
}

// --- scalar usage classification -------------------------------------

// useSet classifies free scalar variables of a region body.
type useSet struct {
	// plainWrites: written outside atomic/critical/once constructs.
	plainWrites map[string]bool
	// protectedWrites: written only under mutex-guarded constructs.
	protectedWrites map[string]bool
}

// collectUses walks a region body and classifies writes to names
// declared outside it.
func collectUses(body testlang.Stmt) *useSet {
	u := &useSet{plainWrites: map[string]bool{}, protectedWrites: map[string]bool{}}
	local := declaredIn(body)
	var visit func(s testlang.Stmt, protected bool)
	record := func(e testlang.Expr, protected bool) {
		id, ok := e.(*testlang.IdentExpr)
		if !ok || local[id.Name] {
			return
		}
		if protected {
			u.protectedWrites[id.Name] = true
		} else {
			u.plainWrites[id.Name] = true
		}
	}
	var visitExpr func(e testlang.Expr, protected bool)
	visitExpr = func(e testlang.Expr, protected bool) {
		switch x := e.(type) {
		case *testlang.AssignExpr:
			record(x.L, protected)
			visitExpr(x.R, protected)
		case *testlang.UnaryExpr:
			if x.Op == "++" || x.Op == "--" {
				record(x.X, protected)
			}
			visitExpr(x.X, protected)
		case *testlang.PostfixExpr:
			record(x.X, protected)
			visitExpr(x.X, protected)
		case *testlang.BinaryExpr:
			visitExpr(x.L, protected)
			visitExpr(x.R, protected)
		case *testlang.CondExpr:
			visitExpr(x.Cond, protected)
			visitExpr(x.Then, protected)
			visitExpr(x.Else, protected)
		case *testlang.CallExpr:
			for _, a := range x.Args {
				visitExpr(a, protected)
			}
		case *testlang.IndexExpr:
			visitExpr(x.X, protected)
			visitExpr(x.Index, protected)
		case *testlang.CastExpr:
			visitExpr(x.X, protected)
		}
	}
	visit = func(s testlang.Stmt, protected bool) {
		switch n := s.(type) {
		case nil:
		case *testlang.Block:
			for _, st := range n.Stmts {
				visit(st, protected)
			}
		case *testlang.DeclStmt:
			for _, d := range n.Decls {
				if d.Init != nil {
					visitExpr(d.Init, protected)
				}
			}
		case *testlang.ExprStmt:
			visitExpr(n.X, protected)
		case *testlang.IfStmt:
			visitExpr(n.Cond, protected)
			visit(n.Then, protected)
			visit(n.Else, protected)
		case *testlang.ForStmt:
			visit(n.Init, protected)
			if n.Cond != nil {
				visitExpr(n.Cond, protected)
			}
			if n.Post != nil {
				visitExpr(n.Post, protected)
			}
			visit(n.Body, protected)
		case *testlang.WhileStmt:
			visitExpr(n.Cond, protected)
			visit(n.Body, protected)
		case *testlang.ReturnStmt:
			if n.X != nil {
				visitExpr(n.X, protected)
			}
		case *testlang.DirectiveStmt:
			prot := protected
			if n.Dir != nil {
				switch n.Dir.Name {
				case "atomic", "critical", "single", "master":
					prot = true
				}
				// Reduction vars of nested work-shared loops are
				// protected (folded under mutex by the nested construct
				// or accumulated locally).
				for _, cl := range n.Dir.Clauses {
					if cl.Name == "reduction" {
						if _, vars, ok := testlang.ReductionParts(cl.Arg); ok {
							for _, v := range vars {
								if !local[v] {
									u.protectedWrites[v] = true
								}
							}
						}
					}
				}
			}
			visit(n.Body, prot)
		}
	}
	visit(body, false)
	// A name with any protected write must not be privatized.
	for name := range u.protectedWrites {
		delete(u.plainWrites, name)
	}
	return u
}

// --- reductions -------------------------------------------------------

// reductionSet manages per-worker accumulators for a construct's
// reduction clauses.
type reductionSet struct {
	items []reductionItem
}

type reductionItem struct {
	op      string
	name    string
	host    *cell
	workers []*cell
	isFloat bool
}

func newReductionSet(ex *exec, plan *compiler.DirPlan, use *useSet) *reductionSet {
	rs := &reductionSet{}
	if plan == nil {
		return rs
	}
	for _, red := range plan.Reductions {
		for _, name := range red.Vars {
			host, ok := ex.env.lookup(name)
			if !ok {
				continue
			}
			item := reductionItem{
				op:      red.Op,
				name:    name,
				host:    host,
				isFloat: host.v.k == kFloat,
				workers: make([]*cell, maxRegionWorkers),
			}
			rs.items = append(rs.items, item)
			// Reduction vars must not also be privatized.
			delete(use.plainWrites, name)
			delete(use.protectedWrites, name)
		}
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

// bindWorker installs fresh accumulators for worker id.
func (rs *reductionSet) bindWorker(into *env, id int) {
	for i := range rs.items {
		it := &rs.items[i]
		c := &cell{v: identity(it.op, it.isFloat)}
		it.workers[id] = c
		into.bind(it.name, c)
	}
}

// fold combines worker accumulators into the host cells, in worker
// order for deterministic floating-point results.
func (rs *reductionSet) fold(ex *exec) {
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

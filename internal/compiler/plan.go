package compiler

import (
	"strings"

	"repro/internal/spec"
	"repro/internal/testlang"
)

// DirKind classifies a directive for the machine.
type DirKind int

const (
	// KindNoop: directives with no runtime effect in the simulation
	// (wait, barrier, flush, routine, declare, init, ...).
	KindNoop DirKind = iota
	// KindComputeBlock: an offloaded structured block (acc parallel /
	// kernels / serial, omp target / target teams / teams / target
	// parallel). The body runs once in the device data environment.
	KindComputeBlock
	// KindComputeLoop: an offloaded work-shared loop (acc parallel
	// loop, omp target teams distribute parallel for, ...). Iterations
	// run concurrently in the device data environment.
	KindComputeLoop
	// KindHostParallel: omp parallel — the block runs once per thread
	// on the host.
	KindHostParallel
	// KindHostLoop: omp parallel for (simd) — host work-shared loop.
	KindHostLoop
	// KindLoop: a loop directive nested inside an enclosing region
	// (acc loop, omp for / simd / distribute). Inside an omp parallel
	// region each worker runs its chunk of the iterations; inside a
	// compute block's single driver the directive forks workers of its
	// own; anywhere else (inside a distributed loop, or outside any
	// region) its loop runs inline.
	KindLoop
	// KindData: structured data region (acc data, omp target data).
	KindData
	// KindEnterData and KindExitData: unstructured data actions.
	KindEnterData
	KindExitData
	// KindUpdate: acc update / omp target update.
	KindUpdate
	// KindAtomic: atomic read/write/update/capture.
	KindAtomic
	// KindCritical: omp critical. Region workers run one after
	// another, so the body runs inline and is already exclusive.
	KindCritical
	// KindOnce: omp single / master — body executes on one thread.
	KindOnce
	// KindInline: constructs executed inline sequentially in the
	// simulation (sections, section, task, ordered).
	KindInline
)

// opensComputeRegion reports whether nested orphaned loop directives
// are legal inside this construct.
func (k DirKind) opensComputeRegion() bool {
	switch k {
	case KindComputeBlock, KindComputeLoop, KindHostParallel, KindHostLoop:
		return true
	}
	return false
}

// IsDevice reports whether the construct executes in the device data
// environment (data movement and presence checks apply).
func (k DirKind) IsDevice(dialect spec.Dialect, name string) bool {
	switch k {
	case KindComputeBlock, KindComputeLoop:
		if dialect == spec.OpenACC {
			return true
		}
		return strings.HasPrefix(name, "target") || strings.HasPrefix(name, "teams")
	}
	return false
}

// DataMode says what a DataOp does with its sections.
type DataMode int

const (
	MCopyIn DataMode = iota
	MCopyOut
	MCopy
	MCreate
	MPresent
	MDelete
	MUpdateHost
	MUpdateDevice
	// MIgnore marks clauses that are validated but have no runtime
	// data-movement effect in the simulation (no_create, deviceptr,
	// use_device, attach, ...).
	MIgnore
)

func (m DataMode) String() string {
	switch m {
	case MCopyIn:
		return "copyin"
	case MCopyOut:
		return "copyout"
	case MCopy:
		return "copy"
	case MCreate:
		return "create"
	case MPresent:
		return "present"
	case MDelete:
		return "delete"
	case MUpdateHost:
		return "update-host"
	case MUpdateDevice:
		return "update-device"
	default:
		return "?"
	}
}

// DataOp is one data-movement action derived from a clause.
type DataOp struct {
	Mode     DataMode
	Sections []testlang.Section
}

// Var is a variable a clause lists, with the declaration it binds.
type Var struct {
	Name string
	Bind testlang.Binding
}

// ReductionPlan is one reduction clause.
type ReductionPlan struct {
	Op   string
	Vars []Var
}

// DirPlan is the lowered, machine-executable form of one directive.
type DirPlan struct {
	Kind DirKind
	// Name is the spec directive name, for diagnostics and device
	// classification.
	Name string
	Data []DataOp
	// Reductions across the construct.
	Reductions []ReductionPlan
	// Inherited holds, on a loop directive whose nearest enclosing
	// region is a compute block, that block's reductions of the
	// variables the directive's own clauses do not bind: the block runs
	// on one driver, and the directive's workers reduce those variables
	// into the driver's copies.
	Inherited []ReductionPlan
	// Private and FirstPrivate variables.
	Private      []Var
	FirstPrivate []Var
	// NumWorkers is the requested parallelism expression (num_gangs,
	// num_threads, num_teams, ...), nil when unspecified.
	NumWorkers testlang.Expr
	// If is the condition expression of an if() clause, nil if absent.
	If testlang.Expr
	// AtomicKind is "read", "write", "update" or "capture".
	AtomicKind string
	// Device reports whether the construct runs in the device data
	// environment.
	Device bool
	// Free lists the variables from outside the body that the body
	// uses, each once, in first-use order; a compute construct's device
	// data environment maps those holding aggregates. PlainWrites lists
	// those of them the body writes, none of them under protection (see
	// region) and none a clause of the construct binds; a parallel
	// region's workers copy those holding scalars. Only a compute
	// construct, a host parallel region or a loop directive has them,
	// and a loop directive's writes count from its loop body on.
	Free, PlainWrites []Var
	// Loop is the canonical form of a loop-associated directive's loop.
	Loop *LoopForm
}

// LoopForm is a work-shared loop's canonical form as the checker
// accepted it: "for (v = Start; v Op Bound; v += Sign*Step)".
type LoopForm struct {
	// Var is the loop variable as the condition names it, so it binds
	// the loop variable's declaration.
	Var *testlang.IdentExpr
	// Start is the variable's initial value and Bound what the
	// condition compares it with.
	Start, Bound testlang.Expr
	// Op is the condition's comparison, read with the variable on its
	// left: "<", "<=", ">", ">=" or "!=".
	Op string
	// Step is the stride of a "+=" or "-=" increment, nil for "++" and
	// "--"; Sign is -1 for "--" and "-=", else 1.
	Step testlang.Expr
	Sign int64
}

// kindOf maps a spec directive name to its machine kind.
func kindOf(dialect spec.Dialect, name string) DirKind {
	if dialect == spec.OpenACC {
		switch name {
		case "parallel", "kernels", "serial":
			return KindComputeBlock
		case "parallel loop", "kernels loop", "serial loop":
			return KindComputeLoop
		case "loop":
			return KindLoop
		case "data":
			return KindData
		case "enter data":
			return KindEnterData
		case "exit data":
			return KindExitData
		case "update":
			return KindUpdate
		case "atomic":
			return KindAtomic
		case "host_data":
			return KindData
		default:
			return KindNoop
		}
	}
	switch name {
	case "parallel":
		return KindHostParallel
	case "parallel for", "parallel for simd":
		return KindHostLoop
	case "for", "for simd", "simd", "distribute":
		return KindLoop
	case "target", "target parallel", "target teams", "teams":
		return KindComputeBlock
	case "target teams distribute", "teams distribute",
		"target teams distribute parallel for",
		"teams distribute parallel for", "target parallel for":
		return KindComputeLoop
	case "target data":
		return KindData
	case "target enter data":
		return KindEnterData
	case "target exit data":
		return KindExitData
	case "target update":
		return KindUpdate
	case "atomic":
		return KindAtomic
	case "critical":
		return KindCritical
	case "single", "master":
		return KindOnce
	case "sections", "section", "task", "ordered":
		return KindInline
	default:
		return KindNoop
	}
}

// clauseDataMode maps data-clause names to modes; ok=false for clauses
// that do not move data.
func clauseDataMode(dialect spec.Dialect, dirName, clause string) (DataMode, bool) {
	switch clause {
	case "copyin":
		return MCopyIn, true
	case "copyout":
		return MCopyOut, true
	case "copy":
		return MCopy, true
	case "create":
		return MCreate, true
	case "present":
		return MPresent, true
	case "delete":
		return MDelete, true
	case "host", "self":
		return MUpdateHost, true
	case "device":
		if dirName == "update" {
			return MUpdateDevice, true
		}
		return 0, false // omp device(n) clause: device number, not data
	case "to":
		if dirName == "target update" {
			return MUpdateDevice, true
		}
		return 0, false // declare target to(...)
	case "from":
		return MUpdateHost, dirName == "target update"
	case "no_create", "deviceptr", "use_device", "is_device_ptr", "device_resident", "link", "attach", "detach":
		return MIgnore, true
	}
	return 0, false
}

func mapTypeMode(mt string) DataMode {
	switch mt {
	case "to":
		return MCopyIn
	case "from":
		return MCopyOut
	case "tofrom":
		return MCopy
	case "alloc":
		return MCreate
	case "release", "delete":
		return MDelete
	default:
		return MCopy
	}
}

// validateDirective checks one directive against the spec table and
// the current scope, and lowers it to a DirPlan. It returns nil when
// the directive is too broken to plan.
func (c *checker) validateDirective(ds *testlang.DirectiveStmt, atFileScope bool) *DirPlan {
	dir := ds.Dir
	table := spec.ForDialect(c.pers.Dialect)
	if !dir.Known {
		c.errorf(dir.Pos(), "invalid text in %s directive: unknown directive %q",
			c.pers.Dialect, dir.Name)
		return nil
	}
	sd, _ := table.Lookup(dir.Name)
	if sd.Version > table.MaxVersion {
		c.errorf(dir.Pos(), "%s directive %q requires specification version %d.%d, newer than supported %d.%d",
			c.pers.Dialect, dir.Name, sd.Version/10, sd.Version%10, table.MaxVersion/10, table.MaxVersion%10)
	}
	for _, d := range c.pers.featureDiags(dir) {
		c.diags = append(c.diags, d)
	}

	plan := &DirPlan{Kind: kindOf(c.pers.Dialect, dir.Name), Name: dir.Name, AtomicKind: "update"}
	plan.Device = plan.Kind.IsDevice(c.pers.Dialect, dir.Name)

	for _, cl := range dir.Clauses {
		arg, valid := sd.Clause(cl.Name)
		if !valid {
			c.errorf(dir.Pos(), "invalid clause %q on %s directive %q", cl.Name, c.pers.Dialect, dir.Name)
			continue
		}
		c.lowerClause(plan, dir, cl, c.checkClauseShape(dir, cl, arg))
	}

	c.checkAssociation(ds, sd, plan, atFileScope)
	return plan
}

// clauseArg is a clause's argument as checkClauseShape checked it,
// with the checker's bindings.
type clauseArg struct {
	// expr is an expression argument, nil unless one parsed.
	expr testlang.Expr
	// vars is a variable list, and parsed reports whether all of it
	// parsed.
	vars   []testlang.Section
	parsed bool
	// op is a reduction's operator or a map's type.
	op string
}

// checkClauseShape validates the argument form of one clause and
// returns the argument it checked.
func (c *checker) checkClauseShape(dir *testlang.Directive, cl testlang.DirClause, arg spec.ClauseArg) (a clauseArg) {
	switch arg {
	case spec.ArgNone:
		if cl.HasParens {
			c.errorf(dir.Pos(), "clause %q takes no argument", cl.Name)
		}
	case spec.ArgIntExpr:
		if !cl.HasParens || strings.TrimSpace(cl.Arg) == "" {
			c.errorf(dir.Pos(), "clause %q requires an argument", cl.Name)
			return
		}
		a.expr = c.checkClauseExpr(dir, cl.Name, cl.Arg)
	case spec.ArgOptionalIntExpr:
		if cl.HasParens && strings.TrimSpace(cl.Arg) != "" {
			a.expr = c.checkClauseExpr(dir, cl.Name, cl.Arg)
		}
	case spec.ArgIfExpr:
		if !cl.HasParens || strings.TrimSpace(cl.Arg) == "" {
			c.errorf(dir.Pos(), "clause %q requires a condition", cl.Name)
			return
		}
		a.expr = c.checkClauseExpr(dir, cl.Name, cl.Arg)
	case spec.ArgVarList:
		if !cl.HasParens {
			c.errorf(dir.Pos(), "clause %q requires a variable list", cl.Name)
			return
		}
		// default(none|shared|present), schedule(static,4) and
		// tile(8,8) style keyword/integer arguments are not variable
		// lists.
		if cl.Name == "default" || cl.Name == "schedule" || cl.Name == "proc_bind" ||
			cl.Name == "dist_schedule" || cl.Name == "device_type" || cl.Name == "bind" ||
			cl.Name == "depend" || cl.Name == "tile" || cl.Name == "aligned" ||
			cl.Name == "linear" {
			return
		}
		a.vars, a.parsed = c.checkSections(dir, cl.Name, cl.Arg)
	case spec.ArgReduction:
		if !cl.HasParens {
			c.errorf(dir.Pos(), "reduction clause requires operator and variables")
			return
		}
		op, names, ok := testlang.ReductionParts(cl.Arg)
		if !ok {
			c.errorf(dir.Pos(), "malformed reduction clause %q", cl.Arg)
			return
		}
		if !spec.ValidReductionOp(op) {
			c.errorf(dir.Pos(), "invalid reduction operator %q", op)
		}
		if len(names) == 0 {
			c.errorf(dir.Pos(), "reduction clause lists no variables")
		}
		a.op, a.parsed = op, true
		for _, name := range names {
			a.vars = append(a.vars, testlang.Section{Name: name, Bind: c.checkClauseVar(dir, cl.Name, name)})
		}
	case spec.ArgMap:
		if !cl.HasParens {
			c.errorf(dir.Pos(), "map clause requires an argument")
			return
		}
		a.op, _ = testlang.MapParts(cl.Arg)
		if !spec.ValidMapType(a.op) {
			c.errorf(dir.Pos(), "invalid map type %q", a.op)
		}
		a.vars, a.parsed = c.checkSections(dir, cl.Name, afterTopColon(cl.Arg))
	}
	return
}

func afterTopColon(arg string) string {
	depth := 0
	for i := 0; i < len(arg); i++ {
		switch arg[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ':':
			if depth == 0 {
				return arg[i+1:]
			}
		}
	}
	return arg
}

// checkClauseExpr checks a clause's expression argument and returns it,
// or nil when it does not parse.
func (c *checker) checkClauseExpr(dir *testlang.Directive, clause, text string) testlang.Expr {
	e, errs := testlang.ParseExprString(text)
	if len(errs) > 0 {
		c.errorf(dir.Pos(), "malformed argument to clause %q: %q", clause, text)
		return nil
	}
	c.checkExpr(e)
	return e
}

// checkSections checks a clause's variable list and returns it, bound,
// and whether all of it parsed.
func (c *checker) checkSections(dir *testlang.Directive, clause, arg string) ([]testlang.Section, bool) {
	secs, errs := testlang.ParseSections(arg)
	if len(errs) > 0 {
		c.errorf(dir.Pos(), "malformed variable list in clause %q: %q", clause, arg)
	}
	for i, s := range secs {
		secs[i].Bind = c.checkClauseVar(dir, clause, s.Name)
		if s.Lo != nil {
			c.checkExpr(s.Lo)
			c.checkExpr(s.Len)
		}
	}
	return secs, len(errs) == 0
}

// checkClauseVar checks that a clause variable is declared, and returns
// the declaration it binds.
func (c *checker) checkClauseVar(dir *testlang.Directive, clause, name string) testlang.Binding {
	if sym, ok := c.lookup(name); ok {
		return sym.bind
	}
	if _, ok := builtinConsts[name]; !ok {
		c.errorf(dir.Pos(), "variable %q in clause %q is not declared", name, clause)
	}
	return 0
}

// clauseVars returns the variables of a checked clause argument.
func clauseVars(secs []testlang.Section) []Var {
	out := make([]Var, len(secs))
	for i, s := range secs {
		out[i] = Var{Name: s.Name, Bind: s.Bind}
	}
	return out
}

// lowerClause records the runtime effect of one clause in the plan,
// from the argument checkClauseShape checked.
func (c *checker) lowerClause(plan *DirPlan, dir *testlang.Directive, cl testlang.DirClause, a clauseArg) {
	switch cl.Name {
	case "reduction":
		if a.parsed {
			plan.Reductions = append(plan.Reductions, ReductionPlan{Op: a.op, Vars: clauseVars(a.vars)})
		}
	case "private":
		plan.Private = append(plan.Private, clauseVars(a.vars)...)
	case "firstprivate":
		plan.FirstPrivate = append(plan.FirstPrivate, clauseVars(a.vars)...)
	case "num_gangs", "num_workers", "num_threads", "num_teams", "vector_length", "thread_limit":
		if plan.NumWorkers == nil {
			plan.NumWorkers = a.expr
		}
	case "if":
		if a.expr != nil {
			plan.If = a.expr
		}
	case "read", "write", "update", "capture":
		if plan.Kind == KindAtomic {
			plan.AtomicKind = cl.Name
		}
	case "map":
		if a.parsed {
			plan.Data = append(plan.Data, DataOp{Mode: mapTypeMode(a.op), Sections: a.vars})
		}
	default:
		if mode, isData := clauseDataMode(c.pers.Dialect, dir.Name, cl.Name); isData && a.parsed {
			plan.Data = append(plan.Data, DataOp{Mode: mode, Sections: a.vars})
		}
	}
}

// checkAssociation validates the construct following the directive.
func (c *checker) checkAssociation(ds *testlang.DirectiveStmt, sd *spec.Directive, plan *DirPlan, atFileScope bool) {
	dir := ds.Dir
	switch sd.Association {
	case spec.AssocNone:
		// Standalone; parser never attaches a body.
	case spec.AssocLoop:
		loop := ds.Body
		// A combined construct may legally wrap another directive
		// (e.g. "omp target" + "omp parallel for"), but loop-associated
		// directives need the loop itself.
		fs, ok := loop.(*testlang.ForStmt)
		if !ok {
			c.errorf(dir.Pos(), "for loop expected after %s directive %q", c.pers.Dialect, dir.Name)
			return
		}
		plan.Loop = c.checkCanonicalLoop(dir, fs)
	case spec.AssocBlock:
		if ds.Body == nil && !atFileScope {
			c.errorf(dir.Pos(), "structured block expected after directive %q", dir.Name)
		}
	case spec.AssocStatement:
		c.checkAtomicBody(dir, plan, ds.Body)
	}
}

// checkCanonicalLoop enforces the canonical loop form both models
// require for work-sharing, and returns the loop's form, or nil when it
// reported an error.
func (c *checker) checkCanonicalLoop(dir *testlang.Directive, fs *testlang.ForStmt) *LoopForm {
	f := c.canonicalLoop(fs, func(format string, args ...any) {
		c.errorf(dir.Pos(), format, args...)
	})
	if f != nil {
		c.loopForms[fs] = f
	}
	return f
}

// canonicalLoop returns the canonical form of a for statement, or nil
// when it has none; report, when not nil, receives why. A canonical
// loop declares or assigns one scalar loop variable that is not a
// float, compares it with <, <=, >, >= or !=, and steps it by ++, --,
// += or -=, or by an assignment of itself plus or minus a stride
// (i = i + c, i = c + i, i = i - c), as OpenMP's canonical loop form
// allows.
func (c *checker) canonicalLoop(fs *testlang.ForStmt, report func(format string, args ...any)) *LoopForm {
	fail := func(format string, args ...any) {
		if report != nil {
			report(format, args...)
		}
	}
	if fs.Cond == nil {
		fail("associated loop has no termination condition (not in canonical form)")
		return nil
	}
	cond, ok := fs.Cond.(*testlang.BinaryExpr)
	if ok = ok && flippedOp[cond.Op] != ""; !ok {
		fail("associated loop condition is not in canonical form")
	}
	if fs.Post == nil {
		fail("associated loop has no increment (not in canonical form)")
		return nil
	}
	if !ok {
		return nil
	}
	f := &LoopForm{Sign: 1}
	name, float := "", false
	switch init := fs.Init.(type) {
	case *testlang.DeclStmt:
		if len(init.Decls) == 1 && init.Decls[0].Init != nil && len(init.Decls[0].ArrayDims) == 0 {
			d := init.Decls[0]
			name, f.Start, float = d.Name, d.Init, d.Type.IsFloat()
		}
	case *testlang.ExprStmt:
		if asg, ok := init.X.(*testlang.AssignExpr); ok && asg.Op == "=" {
			if id, ok := asg.L.(*testlang.IdentExpr); ok {
				if sym, ok := c.lookup(id.Name); ok && !sym.isArray {
					name, f.Start, float = id.Name, asg.R, sym.typ.IsFloat()
				}
			}
		}
	}
	switch {
	case name == "":
		fail("associated loop does not initialize one loop variable (not in canonical form)")
		return nil
	case float:
		fail("loop variable %q has floating-point type (not in canonical form)", name)
		return nil
	}
	if id, ok := loopVar(cond.L, name); ok {
		f.Var, f.Op, f.Bound = id, cond.Op, cond.R
	} else if id, ok := loopVar(cond.R, name); ok {
		f.Var, f.Op, f.Bound = id, flippedOp[cond.Op], cond.L
	} else {
		fail("associated loop condition does not test loop variable %q (not in canonical form)", name)
		return nil
	}
	var stepped testlang.Expr
	op := ""
	switch post := fs.Post.(type) {
	case *testlang.UnaryExpr:
		stepped, op = post.X, post.Op
	case *testlang.PostfixExpr:
		stepped, op = post.X, post.Op
	case *testlang.AssignExpr:
		stepped, op, f.Step = post.L, post.Op, post.R
		if sum, isSum := post.R.(*testlang.BinaryExpr); op == "=" && isSum {
			op, f.Step = selfStep(sum, name)
		}
	}
	switch op {
	case "--", "-=":
		f.Sign = -1
	case "++", "+=":
	default:
		stepped = nil
	}
	if _, ok := loopVar(stepped, name); !ok {
		fail("associated loop increment does not step loop variable %q (not in canonical form)", name)
		return nil
	}
	return f
}

// selfStep reads the right side of an increment "name = sum" as the
// compound assignment it is: i + c and c + i step by += c, i - c by
// -= c. op is empty when sum is none of those.
func selfStep(sum *testlang.BinaryExpr, name string) (op string, step testlang.Expr) {
	_, left := loopVar(sum.L, name)
	switch {
	case sum.Op == "+" && left:
		return "+=", sum.R
	case sum.Op == "+":
		if _, right := loopVar(sum.R, name); right {
			return "+=", sum.L
		}
	case sum.Op == "-" && left:
		return "-=", sum.R
	}
	return "", nil
}

// flippedOp maps each comparison a canonical loop condition may use to
// the one it becomes with its operands swapped.
var flippedOp = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}

// loopVar returns e as the identifier name, if it is that.
func loopVar(e testlang.Expr, name string) (*testlang.IdentExpr, bool) {
	id, ok := e.(*testlang.IdentExpr)
	return id, ok && id.Name == name
}

// checkAtomicBody validates the statement under an atomic directive.
func (c *checker) checkAtomicBody(dir *testlang.Directive, plan *DirPlan, body testlang.Stmt) {
	es, ok := body.(*testlang.ExprStmt)
	if !ok {
		c.errorf(dir.Pos(), "atomic directive requires an expression statement")
		return
	}
	switch x := es.X.(type) {
	case *testlang.AssignExpr:
		// x = expr (write), x op= expr (update), v = x (read/capture)
		return
	case *testlang.UnaryExpr:
		if x.Op == "++" || x.Op == "--" {
			return
		}
	case *testlang.PostfixExpr:
		return
	}
	c.errorf(dir.Pos(), "statement form not supported under atomic %s", plan.AtomicKind)
}

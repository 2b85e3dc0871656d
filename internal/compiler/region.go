package compiler

import (
	"slices"

	"repro/internal/spec"
	"repro/internal/testlang"
)

// region collects a planned directive's region analyses (DirPlan.Free
// and DirPlan.PlainWrites) while its body is checked, from the
// declarations the body's names bind. A region sees the bodies of the
// directives nested in it, but not their clauses, nor the functions its
// body calls.
type region struct {
	plan *DirPlan
	// base is the number of the function's locals declared before the
	// directive: a local numbered below it, or a global, is from outside
	// the body.
	base int
	// writes is set while the body's writes count: from the start, or
	// from the loop body on of loop, a loop directive's for statement.
	// written maps each outside variable written there to whether some
	// write of it is protected: inside a nested atomic, critical, single
	// or master, as a nested directive's reduction variable, or as one
	// of the directive's own clause variables.
	writes  bool
	loop    *testlang.ForStmt
	written map[testlang.Binding]bool
	// covers holds the variables the clauses of the directives nested
	// in the body name.
	covers []testlang.Binding
}

// outside reports whether b binds a variable from outside the region.
func (rg *region) outside(b testlang.Binding) bool {
	if n, ok := b.Local(); ok {
		return n < rg.base
	}
	_, ok := b.Global()
	return ok
}

// directive checks a directive statement. Its clauses are checked where
// it stands, outside the region analyses of the directives around it;
// its body inside those and its own.
func (c *checker) directive(ds *testlang.DirectiveStmt) {
	regions, exclusive, covered := c.regions, c.exclusive, len(c.covered)
	c.regions = nil
	plan := c.validateDirective(ds, false)
	c.regions = regions
	c.plans[ds] = plan
	names := c.clauseBindings(ds, plan)
	for _, rg := range c.regions {
		rg.covers = append(rg.covers, names...)
	}
	var rg *region
	if plan != nil {
		c.covered = append(c.covered, names...)
		for _, red := range plan.Reductions {
			for _, v := range red.Vars {
				c.wrote(v.Bind, true)
			}
		}
		switch plan.Kind {
		case KindAtomic, KindCritical, KindOnce:
			c.exclusive = len(c.regions)
		}
		rg = c.open(plan, ds.Body)
	}
	if ds.Body != nil {
		wasInside, loops, inDirective := c.directiveDepth, c.loops, c.inDirective
		if plan != nil && plan.Kind.opensComputeRegion() {
			c.directiveDepth++
		}
		c.loops, c.inDirective = 0, true
		c.body(ds.Body, "a directive")
		c.directiveDepth, c.loops, c.inDirective = wasInside, loops, inDirective
	}
	if rg != nil {
		for _, v := range plan.Free {
			if protected, ok := rg.written[v.Bind]; ok && !protected {
				plan.PlainWrites = append(plan.PlainWrites, v)
			}
		}
		if plan.Device && c.pers.Dialect == spec.OpenACC {
			c.checkDeviceBounds(ds, rg)
		}
	}
	c.regions, c.exclusive, c.covered = regions, exclusive, c.covered[:covered]
}

// clauseBindings returns the declarations the clauses of a directive
// name: from its plan or, for a directive the compiler does not know,
// by looking its clauses' variables up where it stands.
func (c *checker) clauseBindings(ds *testlang.DirectiveStmt, plan *DirPlan) []testlang.Binding {
	var out []testlang.Binding
	if plan == nil {
		for _, cl := range ds.Dir.Clauses {
			for _, name := range testlang.ClauseVars(cl.Arg) {
				if sym, ok := c.lookup(name); ok {
					out = append(out, sym.bind)
				}
			}
		}
		return out
	}
	for _, op := range plan.Data {
		for _, sec := range op.Sections {
			out = append(out, sec.Bind)
		}
	}
	for _, v := range plan.bound() {
		out = append(out, v.Bind)
	}
	return out
}

// bound returns the variables a plan's workers bind: those of its
// private, firstprivate and reduction clauses, and the reductions it
// inherits.
func (p *DirPlan) bound() []Var {
	out := append(slices.Clip(p.Private), p.FirstPrivate...)
	for _, red := range p.Reductions {
		out = append(out, red.Vars...)
	}
	for _, red := range p.Inherited {
		out = append(out, red.Vars...)
	}
	return out
}

// inherit records on a loop directive's plan the reductions of block,
// the compute block it forks in, of the variables its own clauses do
// not bind.
func (p *DirPlan) inherit(block *DirPlan) {
	own := p.bound()
	for _, red := range block.Reductions {
		var vars []Var
		for _, v := range red.Vars {
			if !slices.ContainsFunc(own, func(o Var) bool { return o.Bind == v.Bind }) {
				vars = append(vars, v)
			}
		}
		if vars != nil {
			p.Inherited = append(p.Inherited, ReductionPlan{Op: red.Op, Vars: vars})
		}
	}
}

// open starts the region analyses of a planned directive whose kind
// needs them: a compute construct, a host parallel region or a loop
// directive. It returns nil for any other.
func (c *checker) open(plan *DirPlan, body testlang.Stmt) *region {
	rg := &region{plan: plan, base: c.locals, writes: true}
	switch plan.Kind {
	case KindComputeBlock, KindHostParallel:
	case KindComputeLoop, KindHostLoop, KindLoop:
		rg.writes = false
		rg.loop, _ = body.(*testlang.ForStmt)
	default:
		return nil
	}
	if n := len(c.regions); plan.Kind == KindLoop && n > 0 && c.regions[n-1].plan.Kind == KindComputeBlock {
		plan.inherit(c.regions[n-1].plan)
	}
	// A worker copies a written scalar only when no clause binds it.
	rg.written = map[testlang.Binding]bool{}
	for _, v := range plan.bound() {
		rg.written[v.Bind] = true
	}
	c.regions = append(c.regions, rg)
	return rg
}

// use records a use of name, bound to b, in every open region it is
// from outside of.
func (c *checker) use(name string, b testlang.Binding) {
	for _, rg := range c.regions {
		if rg.outside(b) && !slices.ContainsFunc(rg.plan.Free, func(v Var) bool { return v.Bind == b }) {
			rg.plan.Free = append(rg.plan.Free, Var{Name: name, Bind: b})
		}
	}
}

// wroteTo records a write of an assignment target, increment or
// decrement operand, when it is a variable.
func (c *checker) wroteTo(e testlang.Expr) {
	if id, ok := e.(*testlang.IdentExpr); ok {
		c.wrote(id.Bind, false)
	}
}

// wrote records a write of b in every open region whose writes count.
func (c *checker) wrote(b testlang.Binding, protected bool) {
	for i, rg := range c.regions {
		if rg.writes && rg.outside(b) {
			rg.written[b] = rg.written[b] || protected || i < c.exclusive
		}
	}
}

// checkDeviceBounds enforces the OpenACC compiler restriction that a
// heap pointer a device compute construct's body takes from outside
// must have its bounds known from a data clause on the construct, on a
// construct around it, or on one nested in its body, that names the
// pointer's declaration. Declared arrays have known sizes and are
// implicitly copied; bare pointers without bounds are a hard error on
// real OpenACC compilers ("size of the GPU copy of 'a' is unknown"),
// and that error is what catches many "removed data clause" probes at
// the pipeline's compile stage.
func (c *checker) checkDeviceBounds(ds *testlang.DirectiveStmt, rg *region) {
	for _, v := range rg.plan.Free {
		// Every outside variable is in scope where the directive stands.
		sym, _ := c.lookup(v.Name)
		if sym.isArray || sym.typ.Ptr == 0 || slices.Contains(c.covered, v.Bind) || slices.Contains(rg.covers, v.Bind) {
			continue
		}
		c.errorf(ds.Dir.Pos(), "Accelerator restriction: size of the GPU copy of %q is unknown", v.Name)
	}
}

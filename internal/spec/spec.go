// Package spec encodes the directive specifications for the two
// directive-based programming models the paper targets: OpenACC (as
// accepted by the simulated NVIDIA HPC SDK compiler) and OpenMP
// restricted to version 4.5 and below (as accepted by the simulated
// LLVM offloading compiler — the paper restricts its Part-Two OpenMP
// suite to <= 4.5 so the compiler is fully compliant for every feature
// present).
//
// The tables here are the single source of truth consumed by:
//
//   - internal/compiler, to validate directives and clauses;
//   - internal/corpus, to generate only specification-conforming tests;
//   - internal/probe, to produce "swapped directive" mutations that are
//     plausibly-shaped but invalid;
//   - internal/model, whose feature extractor checks code against the
//     same tables a real code LLM would have absorbed from training.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Dialect identifies one of the two directive-based programming models.
type Dialect int

const (
	// OpenACC is the OpenACC 3.x model compiled by the simulated nvc.
	OpenACC Dialect = iota
	// OpenMP is the OpenMP <= 4.5 model compiled by the simulated
	// LLVM offloading compiler.
	OpenMP
)

// String returns the conventional model name.
func (d Dialect) String() string {
	switch d {
	case OpenACC:
		return "OpenACC"
	case OpenMP:
		return "OpenMP"
	default:
		return fmt.Sprintf("Dialect(%d)", int(d))
	}
}

// Sentinel returns the pragma sentinel for C/C++ sources ("acc"/"omp").
func (d Dialect) Sentinel() string {
	if d == OpenACC {
		return "acc"
	}
	return "omp"
}

// FortranSentinel returns the comment sentinel used in free-form
// Fortran sources ("!$acc"/"!$omp").
func (d Dialect) FortranSentinel() string {
	return "!$" + d.Sentinel()
}

// ClauseArg describes the argument shape a clause accepts.
type ClauseArg int

const (
	// ArgNone means the clause takes no parenthesised argument
	// (e.g. "independent", "nowait").
	ArgNone ClauseArg = iota
	// ArgVarList means a comma-separated list of variable references,
	// possibly with array sections (e.g. "copyin(a[0:n])").
	ArgVarList
	// ArgIntExpr means a single integer expression (e.g. "num_gangs(32)").
	ArgIntExpr
	// ArgReduction means a reduction operator followed by a variable
	// list (e.g. "reduction(+:sum)").
	ArgReduction
	// ArgMap means an OpenMP map clause: map-type ":" variable list
	// (e.g. "map(tofrom: a[0:n])").
	ArgMap
	// ArgOptionalIntExpr means the parenthesised argument may be
	// omitted (e.g. OpenACC "async" / "worker(4)").
	ArgOptionalIntExpr
	// ArgIfExpr means a scalar condition expression (e.g. "if(n > 0)").
	ArgIfExpr
)

// clause is one (name, argument shape) pair of a clause group.
type clause struct {
	name string
	arg  ClauseArg
}

// Directive describes one directive of a dialect: its (possibly
// multi-word) name, the clauses it accepts, whether it must be
// associated with an immediately following loop or structured block,
// and the model version that introduced it.
//
// Directives live in one static table per dialect, shared by every
// caller and goroutine. A *Directive returned by Lookup or
// LongestDirective must only be read.
type Directive struct {
	// Name is the space-separated directive name as written after the
	// sentinel, e.g. "parallel loop" or "target teams distribute".
	Name string
	// clauses are the clause groups the directive accepts. Groups may
	// overlap, but never with different argument shapes for one name.
	clauses [][]clause
	// Association describes what program construct must follow.
	Association Association
	// Version is the minimum specification version (x10: 45 = 4.5,
	// 30 = 3.0). The simulated compilers gate on this.
	Version int
	// Standalone directives (e.g. "update", "barrier") take effect at
	// their own position rather than opening a region.
	Standalone bool
}

// Clause returns the argument shape of clause name on d, and whether
// d accepts that clause at all.
func (d *Directive) Clause(name string) (ClauseArg, bool) {
	for _, g := range d.clauses {
		for _, c := range g {
			if c.name == name {
				return c.arg, true
			}
		}
	}
	return ArgNone, false
}

// prefixOf returns how many words d's name consumes when it is a
// prefix of words, or 0 when it is not.
func (d *Directive) prefixOf(words []string) int {
	rest := d.Name
	for n, w := range words {
		head, tail, more := strings.Cut(rest, " ")
		if w != head {
			return 0
		}
		if !more {
			return n + 1
		}
		rest = tail
	}
	return 0
}

// Association describes the construct a directive must be attached to.
type Association int

const (
	// AssocNone: standalone executable directive.
	AssocNone Association = iota
	// AssocBlock: applies to the following structured block (compound
	// statement or single statement).
	AssocBlock
	// AssocLoop: must be followed by a for/do loop.
	AssocLoop
	// AssocStatement: must be followed by a single supported statement
	// (e.g. atomic update).
	AssocStatement
)

// ReductionOps lists the reduction operators both models accept on the
// numeric types the test corpus uses.
var ReductionOps = []string{"+", "*", "max", "min", "&&", "||"}

// Spec is a complete directive specification for one dialect. The two
// specs are static, read-only tables shared by every caller; obtain
// one with ForDialect and never modify it or its directives.
type Spec struct {
	Dialect Dialect
	// MaxVersion is the highest specification version the simulated
	// compiler accepts (e.g. 45 for OpenMP 4.5).
	MaxVersion int
	directives []Directive
}

// ForDialect returns the specification for the given dialect.
func ForDialect(d Dialect) *Spec {
	if d == OpenACC {
		return &openACC
	}
	return &openMP
}

// Lookup returns the directive with the given space-normalised name.
func (s *Spec) Lookup(name string) (*Directive, bool) {
	d := s.find(name)
	if d == nil {
		d = s.find(normalize(name))
	}
	return d, d != nil
}

func (s *Spec) find(name string) *Directive {
	for i := range s.directives {
		if s.directives[i].Name == name {
			return &s.directives[i]
		}
	}
	return nil
}

// Directives returns all directive names, sorted, for deterministic
// iteration by the corpus generator and mutators.
func (s *Spec) Directives() []string {
	names := make([]string, len(s.directives))
	for i := range s.directives {
		names[i] = s.directives[i].Name
	}
	sort.Strings(names)
	return names
}

// HasClause reports whether directive dir accepts clause cl.
func (s *Spec) HasClause(dir, cl string) bool {
	d, ok := s.Lookup(dir)
	if !ok {
		return false
	}
	_, ok = d.Clause(cl)
	return ok
}

// LongestDirective returns the longest directive name (in words) that
// is a prefix of the given token sequence, along with the number of
// words consumed. It returns ok=false if no directive matches.
// Directive grammars are word-greedy: "target teams distribute
// parallel for" must win over "target".
func (s *Spec) LongestDirective(words []string) (d *Directive, consumed int, ok bool) {
	for i := range s.directives {
		if n := s.directives[i].prefixOf(words); n > consumed {
			d, consumed = &s.directives[i], n
		}
	}
	return d, consumed, d != nil
}

func normalize(name string) string {
	return strings.Join(strings.Fields(name), " ")
}

// The tables below are composite literals of constants and references
// to other literals only — no maps, no function calls — so the
// compiler lays them out as static data: building them costs nothing
// at init and they add nothing to the live heap.

// Shared OpenACC clause groups.
var (
	accDataClauses = []clause{
		{"copy", ArgVarList},
		{"copyin", ArgVarList},
		{"copyout", ArgVarList},
		{"create", ArgVarList},
		{"present", ArgVarList},
		{"deviceptr", ArgVarList},
		{"no_create", ArgVarList},
		{"attach", ArgVarList},
	}
	accComputeClauses = []clause{
		{"if", ArgIfExpr},
		{"async", ArgOptionalIntExpr},
		{"wait", ArgOptionalIntExpr},
		{"num_gangs", ArgIntExpr},
		{"num_workers", ArgIntExpr},
		{"vector_length", ArgIntExpr},
		{"private", ArgVarList},
		{"firstprivate", ArgVarList},
		{"reduction", ArgReduction},
		{"default", ArgVarList}, // default(none) / default(present)
	}
	accLoopClauses = []clause{
		{"gang", ArgOptionalIntExpr},
		{"worker", ArgOptionalIntExpr},
		{"vector", ArgOptionalIntExpr},
		{"seq", ArgNone},
		{"independent", ArgNone},
		{"auto", ArgNone},
		{"collapse", ArgIntExpr},
		{"tile", ArgVarList},
		{"private", ArgVarList},
		{"reduction", ArgReduction},
	}
	accAsyncClauses = []clause{
		{"if", ArgIfExpr},
		{"async", ArgOptionalIntExpr},
		{"wait", ArgOptionalIntExpr},
	}
	accDeviceClauses = []clause{
		{"device_type", ArgVarList},
		{"device_num", ArgIntExpr},
	}
)

// openACC is the OpenACC 3.x specification table accepted by the
// simulated nvc compiler.
var openACC = Spec{Dialect: OpenACC, MaxVersion: 33, directives: []Directive{
	{Name: "parallel", clauses: [][]clause{accComputeClauses, accDataClauses}, Association: AssocBlock, Version: 10},
	{Name: "kernels", clauses: [][]clause{accComputeClauses, accDataClauses}, Association: AssocBlock, Version: 10},
	{Name: "serial", clauses: [][]clause{accAsyncClauses, {
		{"private", ArgVarList}, {"firstprivate", ArgVarList}, {"reduction", ArgReduction},
	}, accDataClauses}, Association: AssocBlock, Version: 27},
	{Name: "parallel loop", clauses: [][]clause{accComputeClauses, accDataClauses, accLoopClauses}, Association: AssocLoop, Version: 10},
	{Name: "kernels loop", clauses: [][]clause{accComputeClauses, accDataClauses, accLoopClauses}, Association: AssocLoop, Version: 10},
	{Name: "serial loop", clauses: [][]clause{accLoopClauses}, Association: AssocLoop, Version: 27},
	{Name: "loop", clauses: [][]clause{accLoopClauses}, Association: AssocLoop, Version: 10},
	{Name: "data", clauses: [][]clause{accAsyncClauses, accDataClauses}, Association: AssocBlock, Version: 10},
	{Name: "enter data", clauses: [][]clause{{{"copyin", ArgVarList}, {"create", ArgVarList}, {"attach", ArgVarList}}, accAsyncClauses}, Association: AssocNone, Standalone: true, Version: 20},
	{Name: "exit data", clauses: [][]clause{{{"copyout", ArgVarList}, {"delete", ArgVarList}, {"detach", ArgVarList}, {"finalize", ArgNone}}, accAsyncClauses}, Association: AssocNone, Standalone: true, Version: 20},
	{Name: "host_data", clauses: [][]clause{{{"use_device", ArgVarList}, {"if", ArgIfExpr}, {"if_present", ArgNone}}}, Association: AssocBlock, Version: 10},
	{Name: "update", clauses: [][]clause{{{"host", ArgVarList}, {"self", ArgVarList}, {"device", ArgVarList}, {"if_present", ArgNone}}, accAsyncClauses}, Association: AssocNone, Standalone: true, Version: 10},
	{Name: "atomic", clauses: [][]clause{{{"read", ArgNone}, {"write", ArgNone}, {"update", ArgNone}, {"capture", ArgNone}}}, Association: AssocStatement, Version: 20},
	{Name: "wait", clauses: [][]clause{{{"async", ArgOptionalIntExpr}, {"if", ArgIfExpr}}}, Association: AssocNone, Standalone: true, Version: 10},
	{Name: "routine", clauses: [][]clause{{{"gang", ArgNone}, {"worker", ArgNone}, {"vector", ArgNone}, {"seq", ArgNone}, {"bind", ArgVarList}}}, Association: AssocNone, Standalone: true, Version: 20},
	{Name: "declare", clauses: [][]clause{{{"device_resident", ArgVarList}, {"link", ArgVarList}}, accDataClauses}, Association: AssocNone, Standalone: true, Version: 10},
	{Name: "init", clauses: [][]clause{accDeviceClauses}, Association: AssocNone, Standalone: true, Version: 30},
	{Name: "shutdown", clauses: [][]clause{accDeviceClauses}, Association: AssocNone, Standalone: true, Version: 30},
	{Name: "set", clauses: [][]clause{accDeviceClauses, {{"default_async", ArgIntExpr}}}, Association: AssocNone, Standalone: true, Version: 30},
}}

// Shared OpenMP clause groups (<= 4.5 feature set).
var (
	ompParallelClauses = []clause{
		{"if", ArgIfExpr},
		{"num_threads", ArgIntExpr},
		{"default", ArgVarList}, // default(shared) / default(none)
		{"private", ArgVarList},
		{"firstprivate", ArgVarList},
		{"shared", ArgVarList},
		{"reduction", ArgReduction},
		{"proc_bind", ArgVarList},
	}
	ompForClauses = []clause{
		{"private", ArgVarList},
		{"firstprivate", ArgVarList},
		{"lastprivate", ArgVarList},
		{"reduction", ArgReduction},
		{"schedule", ArgVarList},
		{"collapse", ArgIntExpr},
		{"ordered", ArgNone},
		{"nowait", ArgNone},
	}
	ompTargetClauses = []clause{
		{"if", ArgIfExpr},
		{"device", ArgIntExpr},
		{"map", ArgMap},
		{"private", ArgVarList},
		{"firstprivate", ArgVarList},
		{"defaultmap", ArgVarList},
		{"nowait", ArgNone},
		{"depend", ArgVarList},
		{"is_device_ptr", ArgVarList},
	}
	ompTeamsClauses = []clause{
		{"num_teams", ArgIntExpr},
		{"thread_limit", ArgIntExpr},
		{"default", ArgVarList},
		{"private", ArgVarList},
		{"firstprivate", ArgVarList},
		{"shared", ArgVarList},
		{"reduction", ArgReduction},
	}
	ompSimdClauses = []clause{
		{"safelen", ArgIntExpr},
		{"simdlen", ArgIntExpr},
		{"linear", ArgVarList},
		{"aligned", ArgVarList},
		{"private", ArgVarList},
		{"lastprivate", ArgVarList},
		{"reduction", ArgReduction},
		{"collapse", ArgIntExpr},
	}
	ompDistClauses = []clause{
		{"private", ArgVarList},
		{"firstprivate", ArgVarList},
		{"lastprivate", ArgVarList},
		{"collapse", ArgIntExpr},
		{"dist_schedule", ArgVarList},
	}
	ompTargetMotionClauses = []clause{
		{"if", ArgIfExpr},
		{"device", ArgIntExpr},
		{"nowait", ArgNone},
		{"depend", ArgVarList},
	}
)

// openMP is the OpenMP specification table restricted to version 4.5
// and below, matching the paper's Part-Two constraint that every
// feature present be fully supported by the LLVM offloading compiler.
var openMP = Spec{Dialect: OpenMP, MaxVersion: 45, directives: []Directive{
	{Name: "parallel", clauses: [][]clause{ompParallelClauses}, Association: AssocBlock, Version: 10},
	{Name: "for", clauses: [][]clause{ompForClauses}, Association: AssocLoop, Version: 10},
	{Name: "parallel for", clauses: [][]clause{ompParallelClauses, ompForClauses}, Association: AssocLoop, Version: 10},
	{Name: "simd", clauses: [][]clause{ompSimdClauses}, Association: AssocLoop, Version: 40},
	{Name: "for simd", clauses: [][]clause{ompForClauses, ompSimdClauses}, Association: AssocLoop, Version: 40},
	{Name: "parallel for simd", clauses: [][]clause{ompParallelClauses, ompForClauses, ompSimdClauses}, Association: AssocLoop, Version: 40},
	{Name: "sections", clauses: [][]clause{{{"private", ArgVarList}, {"firstprivate", ArgVarList}, {"lastprivate", ArgVarList}, {"reduction", ArgReduction}}}, Association: AssocBlock, Version: 10},
	{Name: "section", Association: AssocBlock, Version: 10},
	{Name: "single", clauses: [][]clause{{{"private", ArgVarList}, {"firstprivate", ArgVarList}, {"nowait", ArgNone}}}, Association: AssocBlock, Version: 10},
	{Name: "master", Association: AssocBlock, Version: 10},
	{Name: "critical", Association: AssocBlock, Version: 10},
	{Name: "barrier", Association: AssocNone, Standalone: true, Version: 10},
	{Name: "taskwait", Association: AssocNone, Standalone: true, Version: 30},
	{Name: "task", clauses: [][]clause{{{"if", ArgIfExpr}, {"private", ArgVarList}, {"firstprivate", ArgVarList}, {"shared", ArgVarList}, {"depend", ArgVarList}, {"untied", ArgNone}, {"final", ArgIfExpr}, {"priority", ArgIntExpr}}}, Association: AssocBlock, Version: 30},
	{Name: "atomic", clauses: [][]clause{{{"read", ArgNone}, {"write", ArgNone}, {"update", ArgNone}, {"capture", ArgNone}, {"seq_cst", ArgNone}}}, Association: AssocStatement, Version: 10},
	{Name: "flush", Association: AssocNone, Standalone: true, Version: 10},
	{Name: "ordered", clauses: [][]clause{{{"simd", ArgNone}, {"threads", ArgNone}}}, Association: AssocBlock, Version: 10},
	{Name: "target", clauses: [][]clause{ompTargetClauses}, Association: AssocBlock, Version: 40},
	{Name: "target data", clauses: [][]clause{{{"if", ArgIfExpr}, {"device", ArgIntExpr}, {"map", ArgMap}, {"use_device_ptr", ArgVarList}}}, Association: AssocBlock, Version: 40},
	{Name: "target enter data", clauses: [][]clause{ompTargetMotionClauses, {{"map", ArgMap}}}, Association: AssocNone, Standalone: true, Version: 45},
	{Name: "target exit data", clauses: [][]clause{ompTargetMotionClauses, {{"map", ArgMap}}}, Association: AssocNone, Standalone: true, Version: 45},
	{Name: "target update", clauses: [][]clause{ompTargetMotionClauses, {{"to", ArgVarList}, {"from", ArgVarList}}}, Association: AssocNone, Standalone: true, Version: 40},
	{Name: "teams", clauses: [][]clause{ompTeamsClauses}, Association: AssocBlock, Version: 40},
	{Name: "distribute", clauses: [][]clause{ompDistClauses}, Association: AssocLoop, Version: 40},
	{Name: "target teams", clauses: [][]clause{ompTargetClauses, ompTeamsClauses}, Association: AssocBlock, Version: 40},
	{Name: "teams distribute", clauses: [][]clause{ompTeamsClauses, ompDistClauses}, Association: AssocLoop, Version: 40},
	{Name: "target teams distribute", clauses: [][]clause{ompTargetClauses, ompTeamsClauses, ompDistClauses}, Association: AssocLoop, Version: 40},
	{Name: "teams distribute parallel for", clauses: [][]clause{ompTeamsClauses, ompDistClauses, ompParallelClauses, ompForClauses}, Association: AssocLoop, Version: 40},
	{Name: "target teams distribute parallel for", clauses: [][]clause{ompTargetClauses, ompTeamsClauses, ompDistClauses, ompParallelClauses, ompForClauses}, Association: AssocLoop, Version: 40},
	{Name: "target parallel for", clauses: [][]clause{ompTargetClauses, ompParallelClauses, ompForClauses}, Association: AssocLoop, Version: 45},
	{Name: "target parallel", clauses: [][]clause{ompTargetClauses, ompParallelClauses}, Association: AssocBlock, Version: 45},
	{Name: "declare target", clauses: [][]clause{{{"to", ArgVarList}, {"link", ArgVarList}}}, Association: AssocNone, Standalone: true, Version: 40},
	{Name: "end declare target", Association: AssocNone, Standalone: true, Version: 40},
	{Name: "threadprivate", Association: AssocNone, Standalone: true, Version: 10},
}}

// MapTypes lists the OpenMP map-type keywords valid in <= 4.5.
var MapTypes = []string{"to", "from", "tofrom", "alloc", "release", "delete"}

// ValidMapType reports whether mt is a valid OpenMP map-type keyword.
func ValidMapType(mt string) bool {
	for _, v := range MapTypes {
		if v == mt {
			return true
		}
	}
	return false
}

// ValidReductionOp reports whether op is a reduction operator both
// simulated compilers accept.
func ValidReductionOp(op string) bool {
	for _, v := range ReductionOps {
		if v == op {
			return true
		}
	}
	return false
}

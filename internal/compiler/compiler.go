// Package compiler implements the simulated "compliant compiler" the
// validation pipeline's first stage runs. It performs full semantic
// analysis of the test dialect — scoped symbol resolution, light type
// checking, and directive/clause validation against internal/spec —
// and lowers accepted programs to the annotated form internal/machine
// executes.
//
// Two compiler personalities reproduce the toolchains the paper used:
//
//   - NVCSim models NVIDIA HPC SDK nvc for OpenACC. It is strict about
//     implicit function declarations (an error, as in recent nvc) and
//     has a small set of unsupported newer OpenACC features, modelling
//     the real-world observation in the paper that a measurable slice
//     of *valid* hand-written OpenACC tests fails to build or run on a
//     given toolchain (pipeline valid-recognition < judge
//     valid-recognition in Tables IV/VII).
//
//   - ClangSim models the LLVM OpenMP offloading compiler on a suite
//     restricted to OpenMP <= 4.5, which the paper chose precisely so
//     the compiler is fully compliant: every 4.5 feature is supported,
//     and implicit function declarations are warnings, not errors.
package compiler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/spec"
	"repro/internal/testlang"
)

// Diagnostic is one compiler message.
type Diagnostic struct {
	Line    int
	Warning bool
	Msg     string
}

func (d Diagnostic) format(name string) string {
	sev := "error"
	if d.Warning {
		sev = "warning"
	}
	return fmt.Sprintf("%s:%d: %s: %s", name, d.Line, sev, d.Msg)
}

// Result is the outcome of compiling one file: the toolchain artefacts
// the agent-based judge receives (return code, stdout, stderr) and,
// on success, the executable object.
type Result struct {
	OK         bool
	ReturnCode int
	Stdout     string
	Stderr     string
	// Object is the checked, executable program; nil unless OK.
	Object *Object
	// Diags preserves structured diagnostics for tests and reports.
	Diags []Diagnostic
}

// Object is a compiled program: the checked AST plus the lowered
// directive plans the machine executes.
type Object struct {
	File    *testlang.File
	Lang    testlang.Language
	Dialect spec.Dialect
	// Funcs maps function name to its definition (bodies only).
	Funcs map[string]*testlang.FuncDecl
	// Globals lists file-scope variable declarations in order.
	Globals []*testlang.VarDecl
	// Plans maps each directive statement to its execution plan.
	Plans map[*testlang.DirectiveStmt]*DirPlan
	// Loops maps each for statement in canonical loop form to that form,
	// a loop directive's own loop included (its plan's Loop).
	Loops map[*testlang.ForStmt]*LoopForm
}

// Personality is a simulated compiler's feature-support profile.
type Personality struct {
	// Name appears in diagnostics ("nvc", "clang").
	Name string
	// Dialect this personality compiles.
	Dialect spec.Dialect
	// ImplicitDeclError: calls to undeclared functions are errors
	// (true for NVCSim) rather than warnings (ClangSim).
	ImplicitDeclError bool
	// Unsupported maps feature keys ("clause:tile",
	// "directive:host_data") to the diagnostic text emitted when a
	// program uses them. These are otherwise-valid constructs this
	// toolchain cannot build, the mechanism behind valid-file compile
	// failures.
	Unsupported map[string]string
}

// NVCSim returns the simulated NVIDIA HPC SDK OpenACC compiler.
func NVCSim() *Personality {
	return &Personality{
		Name:              "nvc",
		Dialect:           spec.OpenACC,
		ImplicitDeclError: true,
		Unsupported: map[string]string{
			"clause:tile":          "tile clause is not supported by this accelerator target",
			"clause:no_create":     "no_create clause is not implemented for this target",
			"clause:attach":        "attach clause is not implemented for this target",
			"clause:detach":        "detach clause is not implemented for this target",
			"clause:if_present":    "if_present is not implemented for this target",
			"directive:host_data":  "host_data construct is not supported for this target",
			"directive:init":       "acc init is not supported in this configuration",
			"directive:shutdown":   "acc shutdown is not supported in this configuration",
			"directive:set":        "acc set is not supported in this configuration",
			"clause:device_type":   "device_type clause is not supported by this release",
			"clause:default_async": "default_async is not supported by this release",
		},
	}
}

// ClangSim returns the simulated LLVM OpenMP offloading compiler,
// fully compliant for OpenMP <= 4.5.
func ClangSim() *Personality {
	return &Personality{
		Name:              "clang",
		Dialect:           spec.OpenMP,
		ImplicitDeclError: false,
		Unsupported:       map[string]string{},
	}
}

// Reference returns an idealised fully-compliant compiler for the
// dialect: every specification feature supported, lenient about
// implicit declarations. The corpus test suite uses it to prove
// templates are specification-valid independent of any personality's
// support gaps.
func Reference(d spec.Dialect) *Personality {
	return &Personality{
		Name:        "refcc",
		Dialect:     d,
		Unsupported: map[string]string{},
	}
}

// ForDialect returns the personality the paper pairs with each model:
// nvc for OpenACC, clang for OpenMP.
func ForDialect(d spec.Dialect) *Personality {
	if d == spec.OpenACC {
		return NVCSim()
	}
	return ClangSim()
}

// Compile type-checks src, validates its directives, and returns the
// toolchain result. name is used in diagnostics ("vecadd.c").
func (p *Personality) Compile(name, src string, lang testlang.Language) *Result {
	if lang == testlang.LangFortran {
		return p.compileFortran(name, src)
	}
	file, parseErrs := testlang.ParseFile(src, lang, p.Dialect)
	c := &checker{pers: p, file: file}
	var diags []Diagnostic
	for _, e := range parseErrs {
		diags = append(diags, Diagnostic{Line: lineOf(e), Msg: stripLinePrefix(e.Error())})
	}
	diags = append(diags, c.check()...)
	return p.finish(name, diags, &Object{
		File:    file,
		Lang:    lang,
		Dialect: p.Dialect,
		Funcs:   c.funcs,
		Globals: c.globals,
		Plans:   c.plans,
		Loops:   c.loopForms,
	})
}

// compileFortran checks a Fortran file. The simulated toolchain
// validates Fortran but does not execute it (the paper's pipeline
// experiments are C/C++ only; its Fortran files appear in Part One,
// which never compiles or runs anything).
func (p *Personality) compileFortran(name, src string) *Result {
	info, errs := testlang.CheckFortran(src, p.Dialect)
	var diags []Diagnostic
	for _, e := range errs {
		diags = append(diags, Diagnostic{Line: lineOf(e), Msg: stripLinePrefix(e.Error())})
	}
	// Feature-support gating applies to Fortran directives too.
	for _, dir := range info.Directives {
		diags = append(diags, p.featureDiags(dir)...)
	}
	return p.finish(name, diags, nil)
}

func (p *Personality) featureDiags(dir *testlang.Directive) []Diagnostic {
	var diags []Diagnostic
	key := "directive:" + strings.ReplaceAll(dir.Name, " ", "_")
	if msg, bad := p.Unsupported[key]; bad {
		diags = append(diags, Diagnostic{Line: dir.Pos(), Msg: msg})
	}
	for _, clause := range dir.Clauses {
		if msg, bad := p.Unsupported["clause:"+clause.Name]; bad {
			diags = append(diags, Diagnostic{Line: dir.Pos(), Msg: msg})
		}
	}
	return diags
}

// finish renders diagnostics into the toolchain result shape.
func (p *Personality) finish(name string, diags []Diagnostic, obj *Object) *Result {
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Line < diags[j].Line })
	res := &Result{Diags: diags}
	var errCount int
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(p.Name)
		sb.WriteByte(' ')
		sb.WriteString(d.format(name))
		sb.WriteByte('\n')
		if !d.Warning {
			errCount++
		}
	}
	if errCount > 0 {
		fmt.Fprintf(&sb, "%s: %d error(s) generated.\n", p.Name, errCount)
		res.ReturnCode = 1
		res.Stderr = sb.String()
		return res
	}
	res.OK = true
	res.Stderr = sb.String() // warnings only
	res.Object = obj
	return res
}

func lineOf(e error) int {
	switch t := e.(type) {
	case *testlang.ParseError:
		return t.Line
	case *testlang.LexError:
		return t.Line
	case *testlang.FortranError:
		return t.Line
	default:
		return 0
	}
}

// stripLinePrefix removes the "line N: " prefix the front-end error
// types embed, since Diagnostic carries the line separately.
func stripLinePrefix(msg string) string {
	if !strings.HasPrefix(msg, "line ") {
		return msg
	}
	if i := strings.Index(msg, ": "); i > 0 {
		return msg[i+2:]
	}
	return msg
}

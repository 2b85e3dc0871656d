package model

import (
	"strings"

	"repro/internal/spec"
	"repro/internal/testlang"
)

// Category is the model's perceived classification of a file — what
// the code looks like to a reader, before any verdict noise. True
// issue labels and perceived categories differ exactly where the
// paper's judges struggle: a removed data clause leaves a file that
// *looks* clean.
type Category int

const (
	// CatClean: nothing structurally wrong is visible.
	CatClean Category = iota
	// CatNoDirectives: the file contains no directives of the model
	// under test at all (random-replacement probes).
	CatNoDirectives
	// CatSyntax: the file does not parse / has unbalanced brackets.
	CatSyntax
	// CatUndeclared: an identifier is used without a declaration.
	CatUndeclared
	// CatDirective: a directive-like line does not match any known
	// directive of the dialect.
	CatDirective
	// CatLogic: the test computes but never verifies (no compare-and-
	// fail pattern).
	CatLogic
)

func (c Category) String() string {
	switch c {
	case CatClean:
		return "clean"
	case CatNoDirectives:
		return "no-directives"
	case CatSyntax:
		return "syntax"
	case CatUndeclared:
		return "undeclared"
	case CatDirective:
		return "directive"
	case CatLogic:
		return "logic"
	default:
		return "?"
	}
}

// Features is everything the simulated model perceives about a file.
type Features struct {
	Dialect    spec.Dialect
	IsFortran  bool
	Lines      int
	TokenCount int
	// DirectiveLines counts lines carrying this dialect's sentinel.
	DirectiveLines int
	// KnownDirectives / UnknownDirectives split DirectiveLines by spec
	// lookup of the directive name.
	KnownDirectives   int
	UnknownDirectives int
	// FirstUnknown names the first unknown directive (for rationales).
	FirstUnknown string
	// ParseBroken: front-end errors or brace imbalance.
	ParseBroken bool
	// UndeclaredUse: an identifier is used but never declared; the
	// first such name is recorded.
	UndeclaredUse   bool
	FirstUndeclared string
	// HasCheckLogic: compare-and-fail verification pattern present.
	HasCheckLogic bool
	// HasComputeLoop: any loop at all (rationale colour).
	HasComputeLoop bool
	// Plausibility is the n-gram score of the text.
	Plausibility float64
}

// ExtractFeatures analyses code text as the given dialect.
func ExtractFeatures(src string, d spec.Dialect, ng *NGram) Features {
	ft := Features{Dialect: d}
	ft.Lines = strings.Count(src, "\n") + 1
	ft.TokenCount = len(Tokenize(src))
	if ng != nil {
		ft.Plausibility = ng.Score(src)
	}
	ft.IsFortran = looksFortran(src)
	if ft.IsFortran {
		extractFortranFeatures(&ft, src, d)
	} else {
		extractCFeatures(&ft, src, d)
	}
	ft.HasCheckLogic = detectCheckLogic(src, ft.IsFortran)
	ft.HasComputeLoop = strings.Contains(src, "for (") || strings.Contains(src, "for(") ||
		strings.Contains(strings.ToLower(src), "do ")
	return ft
}

func looksFortran(src string) bool {
	l := strings.ToLower(src)
	return strings.Contains(l, "program ") && strings.Contains(l, "end program") ||
		strings.Contains(l, "implicit none")
}

func extractCFeatures(ft *Features, src string, d spec.Dialect) {
	sentinel := "#pragma " + d.Sentinel()
	table := spec.ForDialect(d)
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, sentinel) {
			continue
		}
		ft.DirectiveLines++
		body := strings.TrimSpace(strings.TrimPrefix(t, "#pragma"))
		if dir, ok := testlang.ParseDirective(body, d, 0); ok {
			if dir.Known {
				ft.KnownDirectives++
				// A known directive with clauses not in its table also
				// reads as a directive problem.
				if sd, found := table.Lookup(dir.Name); found {
					for _, cl := range dir.Clauses {
						if _, valid := sd.Clause(cl.Name); !valid {
							ft.UnknownDirectives++
							if ft.FirstUnknown == "" {
								ft.FirstUnknown = dir.Name + " " + cl.Name
							}
							break
						}
					}
				}
			} else {
				ft.UnknownDirectives++
				if ft.FirstUnknown == "" {
					ft.FirstUnknown = dir.Name
				}
			}
		}
	}
	bal, early := testlang.CountBraceBalance(src)
	if bal != 0 || early {
		ft.ParseBroken = true
	}
	file, errs := testlang.ParseFile(src, testlang.LangC, d)
	if len(errs) > 0 {
		ft.ParseBroken = true
		return
	}
	ft.UndeclaredUse, ft.FirstUndeclared = scanUndeclared(file)
}

// scanUndeclared performs the model's (light but genuine) declared-
// name analysis over a parsed file.
func scanUndeclared(file *testlang.File) (bool, string) {
	declared := map[string]bool{}
	for k := range wellKnownNames {
		declared[k] = true
	}
	for _, d := range file.Decls {
		switch n := d.(type) {
		case *testlang.VarDecl:
			declared[n.Name] = true
		case *testlang.FuncDecl:
			declared[n.Name] = true
		}
	}
	var firstBad string
	for _, d := range file.Decls {
		fd, ok := d.(*testlang.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		local := map[string]bool{}
		for _, p := range fd.Params {
			local[p.Name] = true
		}
		testlang.Walk(fd.Body, func(s testlang.Stmt) bool {
			if ds, ok := s.(*testlang.DeclStmt); ok {
				for _, v := range ds.Decls {
					local[v.Name] = true
				}
			}
			if fs, ok := s.(*testlang.ForStmt); ok {
				if ds, ok := fs.Init.(*testlang.DeclStmt); ok {
					for _, v := range ds.Decls {
						local[v.Name] = true
					}
				}
			}
			return true
		})
		testlang.WalkExprs(fd.Body, func(e testlang.Expr) {
			if firstBad != "" {
				return
			}
			switch x := e.(type) {
			case *testlang.IdentExpr:
				if !declared[x.Name] && !local[x.Name] {
					firstBad = x.Name
				}
			}
		})
		if firstBad != "" {
			break
		}
	}
	return firstBad != "", firstBad
}

// wellKnownNames are identifiers the model recognises without
// declarations (library symbols and constants).
var wellKnownNames = map[string]bool{
	"printf": true, "fprintf": true, "malloc": true, "calloc": true,
	"free": true, "exit": true, "abs": true, "labs": true, "fabs": true,
	"sqrt": true, "pow": true, "floor": true, "ceil": true, "fmax": true,
	"fmin": true, "sin": true, "cos": true, "exp": true, "log": true,
	"stderr": true, "stdout": true, "NULL": true, "RAND_MAX": true,
	"EXIT_SUCCESS": true, "EXIT_FAILURE": true, "fabsf": true, "sqrtf": true,
	"omp_get_num_threads": true, "omp_get_thread_num": true,
	"omp_get_max_threads": true, "omp_get_num_devices": true,
	"omp_is_initial_device": true, "acc_get_num_devices": true,
	"acc_get_device_num": true, "acc_device_default": true,
	"acc_device_nvidia": true, "acc_device_host": true,
	"omp_sched_static": true, "omp_sched_dynamic": true,
	"memset": true, "memcpy": true, "atoi": true, "strcmp": true,
}

func extractFortranFeatures(ft *Features, src string, d spec.Dialect) {
	info, errs := testlang.CheckFortran(src, d)
	ft.DirectiveLines = len(info.Directives)
	for _, dir := range info.Directives {
		if dir.Known {
			ft.KnownDirectives++
		} else {
			ft.UnknownDirectives++
			if ft.FirstUnknown == "" {
				ft.FirstUnknown = dir.Name
			}
		}
	}
	for _, e := range errs {
		msg := e.Error()
		switch {
		case strings.Contains(msg, "IMPLICIT type"):
			ft.UndeclaredUse = true
			if ft.FirstUndeclared == "" {
				if i := strings.Index(msg, "identifier "); i >= 0 {
					ft.FirstUndeclared = strings.Trim(msg[i+len("identifier "):], `" `)
					if j := strings.IndexByte(ft.FirstUndeclared, '"'); j > 0 {
						ft.FirstUndeclared = ft.FirstUndeclared[:j]
					}
				}
			}
		case strings.Contains(msg, "unknown"):
			// Directive problems are already counted from info.
		default:
			ft.ParseBroken = true
		}
	}
}

// detectCheckLogic looks for the verification idioms of V&V tests:
// an early-return failure path, an error stop, or a fail-closed status
// flag.
func detectCheckLogic(src string, fortran bool) bool {
	if fortran {
		return strings.Contains(src, "stop 1") || strings.Contains(src, "error stop")
	}
	if strings.Contains(src, "return 1") || strings.Contains(src, "exit(1)") ||
		strings.Contains(src, "return errs") || strings.Contains(src, "return errors") {
		return true
	}
	// Fail-closed idiom: a status initialised non-zero and returned is
	// only complete verification when a success path clears it; a file
	// whose status can never become 0 always fails, which reads as
	// broken test logic.
	return strings.Contains(src, "status = 1") && strings.Contains(src, "return status") &&
		strings.Contains(src, "status = 0")
}

// Categorize maps perceived features to the model's read of the file.
// Order encodes salience: a file with no directives at all reads as
// "not a test for this model" before anything else (the paper's direct
// OpenMP judge conspicuously did NOT make that read — that failure
// lives in the probability table, not here).
func Categorize(ft Features) Category {
	switch {
	case ft.DirectiveLines == 0:
		return CatNoDirectives
	case ft.ParseBroken:
		return CatSyntax
	case ft.UndeclaredUse:
		return CatUndeclared
	case ft.UnknownDirectives > 0:
		return CatDirective
	case !ft.HasCheckLogic:
		return CatLogic
	default:
		return CatClean
	}
}

package testlang

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// FortranError is a diagnostic from the Fortran front end.
type FortranError struct {
	Line int
	Msg  string
}

func (e *FortranError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// FortranInfo summarises a checked free-form Fortran source file.
// The reproduction's Fortran front end is a checker, not an executor:
// the paper's Part-One experiments judge Fortran files without
// compiling or running them, and its Part-Two suites are C/C++ only,
// so the simulated toolchain needs syntax, declaration and directive
// validation for Fortran but not code generation.
type FortranInfo struct {
	ProgramName string
	// Declared maps lower-cased identifiers declared in specification
	// statements (and loop variables) to true.
	Declared map[string]bool
	// Directives lists the !$acc / !$omp directives in source order.
	Directives []*Directive
	// ImplicitNone records whether "implicit none" is in force, which
	// is what makes undeclared-identifier checking conformant.
	ImplicitNone bool
}

// fortranKeywords are words never treated as identifiers when scanning
// Fortran expressions.
var fortranKeywords = map[string]bool{
	"program": true, "end": true, "do": true, "if": true, "then": true,
	"else": true, "elseif": true, "use": true, "implicit": true,
	"none": true, "integer": true, "real": true, "logical": true,
	"parameter": true, "allocatable": true, "allocate": true,
	"deallocate": true, "print": true, "write": true, "stop": true,
	"error": true, "call": true, "subroutine": true, "function": true,
	"return": true, "exit": true, "cycle": true, "to": true,
	"abs": true, "sqrt": true, "mod": true, "max": true, "min": true,
	"dble": true, "real8": true, "int": true, "sum": false,
	"true": true, "false": true, "contains": true, "intent": true,
	"in": true, "out": true, "inout": true, "dimension": true,
	"while": true, "result": true, "kind": true, "len": true,
}

// CheckFortran validates a free-form Fortran source file of the
// supported subset against the given dialect's directive
// specification. It returns structural information and the list of
// diagnostics a conforming compiler would emit.
func CheckFortran(src string, dialect spec.Dialect) (*FortranInfo, []error) {
	c := &fortranChecker{
		info:    &FortranInfo{Declared: map[string]bool{}},
		dialect: dialect,
	}
	c.run(src)
	return c.info, c.errs
}

type fortranChecker struct {
	info    *FortranInfo
	dialect spec.Dialect
	errs    []error
	// blockStack holds open block kinds: "program", "do", "if",
	// "subroutine", "function".
	blockStack []string
	blockLines []int
	// pendingLoopDir is a loop-associated directive awaiting its do
	// statement.
	pendingLoopDir *Directive
	sawProgram     bool
}

func (c *fortranChecker) errorf(line int, format string, args ...any) {
	if len(c.errs) < maxParseErrors {
		c.errs = append(c.errs, &FortranError{Line: line, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *fortranChecker) push(kind string, line int) {
	c.blockStack = append(c.blockStack, kind)
	c.blockLines = append(c.blockLines, line)
}

func (c *fortranChecker) pop(kind string, line int) {
	if len(c.blockStack) == 0 {
		c.errorf(line, "'end %s' without matching '%s'", kind, kind)
		return
	}
	top := c.blockStack[len(c.blockStack)-1]
	if top != kind {
		c.errorf(line, "'end %s' closes '%s' opened at line %d", kind, top, c.blockLines[len(c.blockLines)-1])
	}
	c.blockStack = c.blockStack[:len(c.blockStack)-1]
	c.blockLines = c.blockLines[:len(c.blockLines)-1]
}

func (c *fortranChecker) run(src string) {
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		lower := strings.ToLower(line)
		sentinel := c.dialect.FortranSentinel()
		switch {
		case strings.HasPrefix(lower, sentinel+" ") || lower == sentinel:
			c.handleDirective(line[len(sentinel):], lineNo)
			continue
		case strings.HasPrefix(lower, "!$"):
			// A directive for some other model, or a corrupted
			// sentinel: conforming compilers treat unknown sentinels as
			// comments, so no error — but it is not a directive of this
			// dialect either.
			continue
		case strings.HasPrefix(line, "!"):
			continue // comment
		}
		// Strip trailing comment.
		if idx := fortranCommentIndex(line); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
			lower = strings.ToLower(line)
			if line == "" {
				continue
			}
		}
		if bal := parenBalance(line); bal != 0 {
			c.errorf(lineNo, "unbalanced parentheses")
		}
		c.handleStatement(line, lower, lineNo)
		// A loop directive must be immediately followed by a do
		// statement (comments aside).
		if c.pendingLoopDir != nil && !strings.HasPrefix(lower, "do ") && lower != "do" {
			c.errorf(lineNo, "directive %q must be followed by a DO loop", c.pendingLoopDir.Name)
			c.pendingLoopDir = nil
		} else if strings.HasPrefix(lower, "do ") || lower == "do" {
			c.pendingLoopDir = nil
		}
	}
	for i := len(c.blockStack) - 1; i >= 0; i-- {
		c.errorf(c.blockLines[i], "'%s' block is never closed", c.blockStack[i])
	}
	if !c.sawProgram {
		c.errorf(1, "no PROGRAM unit found")
	}
}

func fortranCommentIndex(line string) int {
	inStr := byte(0)
	for i := 0; i < len(line); i++ {
		ch := line[i]
		if inStr != 0 {
			if ch == inStr {
				inStr = 0
			}
			continue
		}
		switch ch {
		case '\'', '"':
			inStr = ch
		case '!':
			return i
		}
	}
	return -1
}

func parenBalance(line string) int {
	bal := 0
	inStr := byte(0)
	for i := 0; i < len(line); i++ {
		ch := line[i]
		if inStr != 0 {
			if ch == inStr {
				inStr = 0
			}
			continue
		}
		switch ch {
		case '\'', '"':
			inStr = ch
		case '(':
			bal++
		case ')':
			bal--
		}
	}
	return bal
}

func (c *fortranChecker) handleDirective(body string, line int) {
	body = strings.TrimSpace(body)
	lower := strings.ToLower(body)
	// Fortran closes block constructs with "!$acc end <directive>".
	// Validate that the closed construct is a known directive name.
	if strings.HasPrefix(lower, "end") {
		rest := strings.TrimSpace(lower[3:])
		if rest == "" {
			c.errorf(line, "malformed end-directive line")
			return
		}
		if _, _, ok := spec.ForDialect(c.dialect).LongestDirective(strings.Fields(rest)); !ok {
			c.errorf(line, "unknown %s directive %q in end-directive", c.dialect, rest)
		}
		return
	}
	full := c.dialect.Sentinel() + " " + body
	dir, ok := ParseDirective(full, c.dialect, line)
	if !ok || dir == nil {
		c.errorf(line, "malformed directive line")
		return
	}
	c.info.Directives = append(c.info.Directives, dir)
	if !dir.Known {
		c.errorf(line, "unknown %s directive %q", c.dialect, dir.Name)
		return
	}
	if sd, found := spec.ForDialect(c.dialect).Lookup(dir.Name); found {
		if sd.Association == spec.AssocLoop {
			c.pendingLoopDir = dir
		}
		for _, clause := range dir.Clauses {
			if _, ok := sd.Clause(clause.Name); !ok {
				// "end" clauses like "!$acc end parallel" arrive as
				// unknown-directive lines instead; clause mismatch here
				// is a genuine error.
				c.errorf(line, "clause %q is not valid on %s directive %q", clause.Name, c.dialect, dir.Name)
			}
		}
	}
}

func (c *fortranChecker) handleStatement(line, lower string, lineNo int) {
	switch {
	case strings.HasPrefix(lower, "program "):
		c.sawProgram = true
		c.info.ProgramName = strings.TrimSpace(line[len("program "):])
		c.push("program", lineNo)
	case strings.HasPrefix(lower, "end program") || lower == "end":
		if lower == "end" && len(c.blockStack) > 0 {
			// Bare END closes the innermost block.
			c.blockStack = c.blockStack[:len(c.blockStack)-1]
			c.blockLines = c.blockLines[:len(c.blockLines)-1]
			return
		}
		c.pop("program", lineNo)
	case strings.HasPrefix(lower, "end do"):
		c.pop("do", lineNo)
	case strings.HasPrefix(lower, "enddo"):
		c.pop("do", lineNo)
	case strings.HasPrefix(lower, "end if") || strings.HasPrefix(lower, "endif"):
		c.pop("if", lineNo)
	case strings.HasPrefix(lower, "end subroutine"):
		c.pop("subroutine", lineNo)
	case strings.HasPrefix(lower, "end function"):
		c.pop("function", lineNo)
	case strings.HasPrefix(lower, "subroutine "):
		c.push("subroutine", lineNo)
	case strings.HasPrefix(lower, "function ") || strings.Contains(lower, " function "):
		c.push("function", lineNo)
	case strings.HasPrefix(lower, "use "):
		// Module use: openacc / omp_lib etc. No checking needed.
	case lower == "implicit none":
		c.info.ImplicitNone = true
	case strings.HasPrefix(lower, "integer") || strings.HasPrefix(lower, "real") || strings.HasPrefix(lower, "logical"):
		c.handleDeclaration(line, lineNo)
	case strings.HasPrefix(lower, "allocate(") || strings.HasPrefix(lower, "allocate ("):
		c.checkUses(insideOuterParens(line), lineNo)
	case strings.HasPrefix(lower, "deallocate"):
		c.checkUses(insideOuterParens(line), lineNo)
	case strings.HasPrefix(lower, "do "):
		c.push("do", lineNo)
		// "do i = 1, n": the loop variable is implicitly declared in
		// strict Fortran? No — it must be declared; but record usage.
		rest := line[3:]
		if eq := strings.IndexByte(rest, '='); eq > 0 {
			c.checkUses(rest[:eq], lineNo)
			c.checkUses(rest[eq+1:], lineNo)
		}
	case strings.HasPrefix(lower, "if ") || strings.HasPrefix(lower, "if("):
		cond := insideOuterParens(line)
		c.checkUses(cond, lineNo)
		if strings.HasSuffix(lower, "then") {
			c.push("if", lineNo)
		}
	case strings.HasPrefix(lower, "else"):
		// else / else if (...) then — stays within the open if block.
		if strings.Contains(lower, "(") {
			c.checkUses(insideOuterParens(line), lineNo)
		}
	case strings.HasPrefix(lower, "print"):
		if comma := strings.IndexByte(line, ','); comma >= 0 {
			c.checkUses(line[comma+1:], lineNo)
		}
	case strings.HasPrefix(lower, "write"):
		if close := strings.IndexByte(line, ')'); close >= 0 {
			c.checkUses(line[close+1:], lineNo)
		}
	case strings.HasPrefix(lower, "stop") || strings.HasPrefix(lower, "error stop"):
		// Normal termination statements.
	case strings.HasPrefix(lower, "call "):
		c.checkUses(insideOuterParens(line), lineNo)
	case strings.HasPrefix(lower, "return") || strings.HasPrefix(lower, "exit") || strings.HasPrefix(lower, "cycle"):
	case strings.HasPrefix(lower, "contains"):
	default:
		// Assignment statement: lhs = rhs.
		if eq := assignmentIndex(line); eq > 0 {
			c.checkUses(line[:eq], lineNo)
			c.checkUses(line[eq+1:], lineNo)
		} else {
			c.errorf(lineNo, "unrecognised statement %q", truncate(line, 40))
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// assignmentIndex finds the '=' of an assignment, skipping == /= <= >=
// comparisons and parenthesised content.
func assignmentIndex(line string) int {
	depth := 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '=':
			if depth > 0 {
				continue
			}
			if i+1 < len(line) && line[i+1] == '=' {
				return -1
			}
			if i > 0 && (line[i-1] == '=' || line[i-1] == '/' || line[i-1] == '<' || line[i-1] == '>') {
				return -1
			}
			return i
		}
	}
	return -1
}

// insideOuterParens returns the text inside the first balanced
// parenthesis group of the line ("" if none).
func insideOuterParens(line string) string {
	open := strings.IndexByte(line, '(')
	if open < 0 {
		return ""
	}
	depth := 0
	for i := open; i < len(line); i++ {
		switch line[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return line[open+1 : i]
			}
		}
	}
	return line[open+1:]
}

// handleDeclaration records declared names from a specification
// statement like "real(8), allocatable :: a(:), b(:)".
func (c *fortranChecker) handleDeclaration(line string, lineNo int) {
	sep := strings.Index(line, "::")
	names := line
	if sep >= 0 {
		names = line[sep+2:]
	} else {
		// Old-style "integer i" declarations: everything after the
		// first word.
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			names = line[sp+1:]
		} else {
			return
		}
	}
	for _, name := range splitTopLevelCommas(names, nil) {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		// Trim dimension spec and initialiser.
		if i := strings.IndexByte(name, '('); i >= 0 {
			// Check the dimension expression uses declared names.
			c.checkUses(insideOuterParens(name), lineNo)
			name = name[:i]
		}
		if i := strings.IndexByte(name, '='); i >= 0 {
			c.checkUses(name[i+1:], lineNo)
			name = name[:i]
		}
		name = strings.TrimSpace(name)
		if name != "" {
			c.info.Declared[strings.ToLower(name)] = true
		}
	}
}

// splitTopLevelCommas appends to parts the pieces of s between the
// commas outside parentheses.
func splitTopLevelCommas(s string, parts []string) []string {
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// checkUses scans expression text for identifiers and reports any that
// are undeclared (when implicit none is in force).
func (c *fortranChecker) checkUses(expr string, lineNo int) {
	if !c.info.ImplicitNone {
		return
	}
	for _, id := range scanIdentifiers(expr) {
		l := strings.ToLower(id)
		if fortranKeywords[l] {
			continue
		}
		if !c.info.Declared[l] {
			c.errorf(lineNo, "identifier %q has no IMPLICIT type and is not declared", id)
			// Record it to avoid cascading repeats for the same name.
			c.info.Declared[l] = true
		}
	}
}

// scanIdentifiers extracts identifier-shaped words from expression
// text, skipping string literals and numeric literals (including kind
// suffixes like 1.0d0).
func scanIdentifiers(expr string) []string {
	var ids []string
	i := 0
	for i < len(expr) {
		ch := expr[i]
		switch {
		case ch == '\'' || ch == '"':
			q := ch
			i++
			for i < len(expr) && expr[i] != q {
				i++
			}
			i++
		case ch >= '0' && ch <= '9':
			for i < len(expr) && (isIdentCont(expr[i]) || expr[i] == '.') {
				i++
			}
		case isIdentStart(ch):
			start := i
			for i < len(expr) && isIdentCont(expr[i]) {
				i++
			}
			ids = append(ids, expr[start:i])
		default:
			i++
		}
	}
	return ids
}

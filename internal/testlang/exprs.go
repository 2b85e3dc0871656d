package testlang

import (
	"fmt"
	"strings"
)

// ParseExprString parses a standalone C expression (as found in
// directive clause arguments like "num_gangs(n*2)"). It returns the
// expression and any syntax errors.
func ParseExprString(s string) (Expr, []error) {
	p := newParser(s, 0, 0)
	e := p.parseExpr()
	errs := p.finish()
	if p.cur().Kind != EOF {
		errs = append(errs, &ParseError{Line: p.cur().Line, Msg: fmt.Sprintf("unexpected trailing %q in expression", p.cur().Text)})
	}
	return e, errs
}

// Section is a parsed data-clause array section such as "a[0:n]" or a
// bare variable reference "a" (Lo and Len nil in that case).
// OpenACC sections use [lo:len]; Fortran-style (lo:hi) sections are
// accepted by the Fortran front end separately.
type Section struct {
	Name string
	// Bind is the declaration Name binds, which the checker sets.
	Bind Binding
	Lo   Expr // nil when the whole object is referenced
	Len  Expr // nil when the whole object is referenced
}

// ParseSections parses a data-clause variable list with optional array
// sections: "a[0:n], b, c[2:8]".
func ParseSections(arg string) ([]Section, []error) {
	var secs []Section
	var errs []error
	for _, part := range splitTopLevelCommas(arg) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		open := strings.IndexByte(part, '[')
		if open < 0 {
			if !isIdentifierWord(part) {
				errs = append(errs, &ParseError{Line: 0, Msg: fmt.Sprintf("malformed data reference %q", part)})
				continue
			}
			secs = append(secs, Section{Name: part})
			continue
		}
		name := strings.TrimSpace(part[:open])
		if !isIdentifierWord(name) {
			errs = append(errs, &ParseError{Line: 0, Msg: fmt.Sprintf("malformed data reference %q", part)})
			continue
		}
		if !strings.HasSuffix(part, "]") {
			errs = append(errs, &ParseError{Line: 0, Msg: fmt.Sprintf("unterminated array section %q", part)})
			continue
		}
		inner := part[open+1 : len(part)-1]
		colon := topLevelColon(inner)
		if colon < 0 {
			// Single-element section a[i]: length 1 starting at i.
			lo, es := ParseExprString(inner)
			errs = append(errs, es...)
			secs = append(secs, Section{Name: name, Lo: lo, Len: &IntLitExpr{Value: 1}})
			continue
		}
		loText := strings.TrimSpace(inner[:colon])
		lenText := strings.TrimSpace(inner[colon+1:])
		sec := Section{Name: name}
		if loText == "" {
			sec.Lo = &IntLitExpr{Value: 0}
		} else {
			lo, es := ParseExprString(loText)
			errs = append(errs, es...)
			sec.Lo = lo
		}
		if lenText == "" {
			errs = append(errs, &ParseError{Line: 0, Msg: fmt.Sprintf("array section %q needs a length", part)})
			continue
		}
		ln, es := ParseExprString(lenText)
		errs = append(errs, es...)
		sec.Len = ln
		secs = append(secs, sec)
	}
	return secs, errs
}

func topLevelColon(s string) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ':':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func isIdentifierWord(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentCont(s[i]) {
			return false
		}
	}
	return true
}

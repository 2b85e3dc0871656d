package testlang

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseExprString parses a standalone C expression (as found in
// directive clause arguments like "num_gangs(n*2)"). It returns the
// expression and any syntax errors.
func ParseExprString(s string) (Expr, []error) {
	// A lone name or decimal literal, the usual section bound, needs no
	// Parser.
	if isIdentifierWord(s) && keywordCode(s) == opNone {
		return &IdentExpr{Name: s, position: 1}, nil
	}
	if isDecimal(s) {
		if v, err := parseInt(s); err == nil {
			return &IntLitExpr{Value: v, position: 1}, nil
		}
	}
	var p Parser
	p.init(s, 0, 0)
	e := p.parseExpr()
	errs := p.finish()
	if p.tok.Kind != EOF {
		errs = append(errs, &ParseError{Line: p.tok.Line, Msg: fmt.Sprintf("unexpected trailing %q in expression", p.tok.Text)})
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
	var secBuf [4]Section
	var partBuf [8]string
	secs := secBuf[:0]
	var errs []error
	for _, part := range splitTopLevelCommas(arg, partBuf[:0]) {
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
	if len(secs) == 0 {
		return nil, errs
	}
	return append([]Section(nil), secs...), errs
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

// parseInt reads an integer literal's text as C does (a 0x prefix is
// hex, a leading 0 octal) into an int64.
func parseInt(s string) (int64, error) {
	if len(s) > 18 || !isDecimal(s) {
		return strconv.ParseInt(s, 0, 64)
	}
	var v int64
	for i := 0; i < len(s); i++ {
		v = v*10 + int64(s[i]-'0')
	}
	return v, nil
}

// isDecimal reports whether s is a decimal literal the lexer reads as
// one integer token: digits, with no leading zero unless s is "0".
func isDecimal(s string) bool {
	if s == "" || s[0] == '0' && len(s) > 1 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return true
}

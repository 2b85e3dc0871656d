package testlang

import (
	"strings"

	"repro/internal/spec"
)

// ParseDirective parses the body of a "#pragma" line (text after the
// word "pragma", e.g. "acc parallel loop reduction(+:sum)") into a
// structured Directive for the given dialect's spec table.
//
// It returns (nil, false) when the body does not start with the
// dialect's sentinel at all — the line is then some other pragma, not
// a directive of this model. When the sentinel matches but the
// directive name is not in the spec table, it returns a Directive with
// Known=false so the compiler can report "unknown directive" (the
// shape negative-probing mutation 0 produces).
func ParseDirective(body string, dialect spec.Dialect, line int) (*Directive, bool) {
	d, _, ok := parseDirective(body, dialect, line, nil, nil)
	return d, ok
}

// parseDirective is ParseDirective taking the Directive and its
// clauses from a parse's slabs (nil slabs allocate them), which also
// returns the spec table's entry of a known directive.
func parseDirective(body string, dialect spec.Dialect, line int, dirs *slab[Directive], clauses *slab[DirClause]) (*Directive, *spec.Directive, bool) {
	var buf [16]string
	fields := splitDirectiveWords(body, buf[:0])
	if len(fields) == 0 || fields[0] != dialect.Sentinel() {
		return nil, nil, false
	}
	rest := fields[1:]
	d := dirs.new()
	*d = Directive{
		Dialect:  dialect,
		Raw:      body,
		position: position(line),
	}
	table := spec.ForDialect(dialect)
	dir, consumed, ok := table.LongestDirective(rest)
	if !ok {
		// Unknown directive: take the first word as its name.
		if len(rest) > 0 {
			d.Name = stripClauseParens(rest[0])
			rest = rest[1:]
		}
		d.Known = false
		d.Clauses = parseClauses(rest, clauses)
		return d, nil, true
	}
	d.Name = dir.Name
	d.Known = true
	d.Clauses = parseClauses(rest[consumed:], clauses)
	return d, dir, true
}

// stripClauseParens removes a trailing "(...)" from a word, so an
// unknown directive written as "parallell(x)" still yields a name.
func stripClauseParens(w string) string {
	if i := strings.IndexByte(w, '('); i >= 0 {
		return w[:i]
	}
	return w
}

// splitDirectiveWords appends the words of a directive body to words,
// keeping each clause's parenthesised argument attached to the clause
// word even if it contains spaces or commas: "reduction( + : sum )" is
// one word. No word is empty.
func splitDirectiveWords(body string, words []string) []string {
	i := 0
	n := len(body)
	for i < n {
		for i < n && (body[i] == ' ' || body[i] == '\t' || body[i] == ',') {
			i++
		}
		if i >= n {
			break
		}
		start := i
		depth := 0
		for i < n {
			c := body[i]
			if c == '(' {
				depth++
			} else if c == ')' {
				if depth > 0 {
					depth--
				}
			} else if (c == ' ' || c == '\t' || c == ',') && depth == 0 {
				break
			}
			i++
		}
		words = append(words, body[start:i])
	}
	return words
}

// parseClauses parses the remaining words of a directive body as
// clauses, one per word, taking them from clauses. A clause is NAME or
// NAME(arg...).
func parseClauses(words []string, clauses *slab[DirClause]) []DirClause {
	if len(words) == 0 {
		return nil
	}
	out := clauses.take(len(words))
	for i, w := range words {
		open := strings.IndexByte(w, '(')
		if open < 0 {
			out[i] = DirClause{Name: w}
			continue
		}
		name := w[:open]
		arg := w[open+1:]
		// Trim one trailing ')' if present; unbalanced input keeps the
		// text so validation can complain.
		if strings.HasSuffix(arg, ")") {
			arg = arg[:len(arg)-1]
		}
		out[i] = DirClause{Name: name, Arg: strings.TrimSpace(arg), HasParens: true}
	}
	return out
}

// ClauseVars extracts the variable names referenced by a clause
// argument. It understands plain lists ("a, b"), array sections
// ("a[0:n]", "a(1:n)"), reduction arguments ("+:sum"), and map
// arguments ("tofrom: a[0:n]").
func ClauseVars(arg string) []string {
	// For reduction/map style arguments, only the part after the last
	// top-level ':' outside brackets lists variables.
	payload := arg
	depth := 0
	lastColon := -1
	for i := 0; i < len(arg); i++ {
		switch arg[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ':':
			if depth == 0 {
				lastColon = i
			}
		}
	}
	if lastColon >= 0 {
		payload = arg[lastColon+1:]
	}
	var vars []string
	i := 0
	for i < len(payload) {
		c := payload[i]
		if isIdentStart(c) {
			start := i
			for i < len(payload) && isIdentCont(payload[i]) {
				i++
			}
			vars = append(vars, payload[start:i])
			// Skip an attached array section.
			depth := 0
			for i < len(payload) {
				if payload[i] == '[' || payload[i] == '(' {
					depth++
				} else if payload[i] == ']' || payload[i] == ')' {
					depth--
				} else if depth == 0 {
					break
				}
				i++
			}
			continue
		}
		i++
	}
	return vars
}

// ReductionParts splits a reduction clause argument "op:vars" into the
// operator and variable names. ok is false when no top-level colon is
// present.
func ReductionParts(arg string) (op string, vars []string, ok bool) {
	depth := 0
	for i := 0; i < len(arg); i++ {
		switch arg[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ':':
			if depth == 0 {
				return strings.TrimSpace(arg[:i]), ClauseVars(arg[i:]), true
			}
		}
	}
	return "", nil, false
}

// MapParts splits an OpenMP map clause argument "maptype: vars" into
// the map type and variables. When no colon is present the map type
// defaults to "tofrom" as the specification prescribes.
func MapParts(arg string) (mapType string, vars []string) {
	depth := 0
	for i := 0; i < len(arg); i++ {
		switch arg[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ':':
			if depth == 0 {
				return strings.TrimSpace(arg[:i]), ClauseVars(arg[i+1:])
			}
		}
	}
	return "tofrom", ClauseVars(arg)
}

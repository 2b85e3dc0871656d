package testlang

import (
	"fmt"
	"strings"
)

// LexError describes a lexical error with its source line.
type LexError struct {
	Line int
	Msg  string
}

func (e *LexError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// Lexer tokenises C-dialect source one token at a time: the parser
// pulls each token with Next as it needs it, so no token slice is
// built for a file. It performs a tiny amount of preprocessing itself:
// "#include" lines become Include tokens, "#pragma" lines become
// Pragma tokens (with line continuations folded), and object-like
// "#define NAME value" macros are expanded by substitution, which
// covers the `#define N 1024` style the V&V suites use.
type Lexer struct {
	src  string
	pos  int
	line int
	// defines holds each macro's tokenised body. It and defineText
	// are made at the first #define; most sources have one or none.
	defines map[string][]Token
	// defineText keeps each macro's raw body for textual expansion
	// inside pragma operands, where real preprocessors also expand
	// object-like macros.
	defineText map[string]string
	errs       []error
	// expandQueue holds tokens produced by macro expansion that must be
	// returned before scanning resumes.
	expandQueue []Token
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(format string, args ...any) {
	l.errs = append(l.errs, &LexError{Line: l.line, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) byteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

// Next returns the next token, expanding macros.
func (l *Lexer) Next() Token {
	if len(l.expandQueue) > 0 {
		t := l.expandQueue[0]
		l.expandQueue = l.expandQueue[1:]
		return t
	}
	t := l.scan()
	if t.Kind == Ident {
		if body, ok := l.defines[t.Text]; ok && len(body) > 0 {
			// Substitute, preserving the use-site line number.
			subst := make([]Token, len(body))
			for i, bt := range body {
				bt.Line = t.Line
				subst[i] = bt
			}
			l.expandQueue = append(subst[1:], l.expandQueue...)
			return subst[0]
		}
	}
	return t
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) scan() Token {
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			return Token{Kind: EOF, Line: l.line}
		}
		c := l.peekByte()
		startLine := l.line
		switch {
		case c == '#':
			if t, emitted := l.scanDirectiveLine(); emitted {
				return t
			}
			continue // #define or unknown preprocessor line consumed
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentCont(l.peekByte()) {
				l.pos++
			}
			text := l.src[start:l.pos]
			kind := Ident
			// Every keyword is 2 to 8 lower-case letters; most
			// identifiers are ruled out before the map lookup.
			if n := len(text); n >= 2 && n <= 8 && text[0] >= 'a' && text[0] <= 'z' && keywords[text] {
				kind = Keyword
			}
			return Token{Kind: kind, Text: text, Line: startLine}
		case isDigit(c) || (c == '.' && isDigit(l.byteAt(1))):
			return l.scanNumber()
		case c == '"':
			return l.scanString()
		case c == '\'':
			return l.scanChar()
		default:
			return l.scanOperator()
		}
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '\\' && l.byteAt(1) == '\n':
			l.advance()
			l.advance()
		case c == '/' && l.byteAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.pos++
			}
		case c == '/' && l.byteAt(1) == '*':
			l.pos += 2
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.byteAt(1) == '/' {
					l.pos += 2
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf("unterminated block comment")
				return
			}
		default:
			return
		}
	}
}

// scanDirectiveLine handles a line starting with '#'. It returns a
// token for #pragma and #include; #define is recorded and nothing is
// emitted (emitted=false); other preprocessor lines are skipped.
func (l *Lexer) scanDirectiveLine() (Token, bool) {
	startLine := l.line
	line := l.readLogicalLine()
	trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "#"))
	switch {
	case strings.HasPrefix(trimmed, "pragma"):
		body := strings.TrimSpace(strings.TrimPrefix(trimmed, "pragma"))
		return Token{Kind: Pragma, Text: l.expandInText(body), Line: startLine}, true
	case strings.HasPrefix(trimmed, "include"):
		body := strings.TrimSpace(strings.TrimPrefix(trimmed, "include"))
		return Token{Kind: Include, Text: body, Line: startLine}, true
	case strings.HasPrefix(trimmed, "define"):
		l.recordDefine(strings.TrimSpace(strimPrefixWord(trimmed, "define")), startLine)
		return Token{}, false
	case strings.HasPrefix(trimmed, "ifdef"), strings.HasPrefix(trimmed, "ifndef"),
		strings.HasPrefix(trimmed, "endif"), strings.HasPrefix(trimmed, "else"),
		strings.HasPrefix(trimmed, "if"), strings.HasPrefix(trimmed, "undef"):
		// Conditional compilation is not modelled; the corpus does not
		// emit it, and stray occurrences in probed files are ignored.
		return Token{}, false
	default:
		l.errorf("unrecognised preprocessor directive %q", "#"+trimmed)
		return Token{}, false
	}
}

func strimPrefixWord(s, word string) string {
	return strings.TrimPrefix(s, word)
}

// readLogicalLine consumes the rest of the current line, folding
// backslash continuations, and returns its text: a substring of the
// source unless a continuation was folded.
func (l *Lexer) readLogicalLine() string {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		if l.src[l.pos] == '\\' && l.byteAt(1) == '\n' {
			var b strings.Builder
			b.WriteString(l.src[start:l.pos])
			return l.foldLine(&b)
		}
		l.pos++
	}
	line := l.src[start:l.pos]
	if l.pos < len(l.src) {
		l.advance()
	}
	return line
}

// foldLine appends the rest of a continued line to b.
func (l *Lexer) foldLine(b *strings.Builder) string {
	for l.pos < len(l.src) {
		c := l.peekByte()
		if c == '\\' && l.byteAt(1) == '\n' {
			l.advance()
			l.advance()
			b.WriteByte(' ')
			continue
		}
		if c == '\n' {
			l.advance()
			break
		}
		b.WriteByte(c)
		l.pos++
	}
	return b.String()
}

// recordDefine parses an object-like macro "NAME body..." and stores
// its tokenised body for substitution. Function-like macros are not
// modelled; a '(' immediately after the name voids the define with an
// error, since the corpus never emits them.
func (l *Lexer) recordDefine(rest string, line int) {
	rest = strings.TrimSpace(rest)
	i := 0
	for i < len(rest) && isIdentCont(rest[i]) {
		i++
	}
	if i == 0 {
		l.errorf("malformed #define")
		return
	}
	name := rest[:i]
	if i < len(rest) && rest[i] == '(' {
		l.errorf("function-like macro %q not supported", name)
		return
	}
	if l.defines == nil {
		l.defines = map[string][]Token{}
		l.defineText = map[string]string{}
	}
	body := strings.TrimSpace(rest[i:])
	if body == "" {
		l.defines[name] = nil
		return
	}
	sub := NewLexer(body)
	var toks []Token
	for {
		t := sub.Next()
		if t.Kind == EOF {
			break
		}
		t.Line = line
		toks = append(toks, t)
	}
	l.errs = append(l.errs, sub.Errors()...)
	l.defines[name] = toks
	l.defineText[name] = body
}

// expandInText performs textual object-like macro substitution over
// free text (pragma operands). A few passes handle shallow macro
// chains; corpus macros never recurse.
func (l *Lexer) expandInText(text string) string {
	if len(l.defineText) == 0 {
		return text
	}
	for pass := 0; pass < 4; pass++ {
		// b receives text up to copied, the first byte not yet
		// written, once a macro has been found.
		var b strings.Builder
		changed := false
		copied := 0
		i := 0
		for i < len(text) {
			if !isIdentStart(text[i]) {
				i++
				continue
			}
			start := i
			for i < len(text) && isIdentCont(text[i]) {
				i++
			}
			if repl, ok := l.defineText[text[start:i]]; ok && repl != "" {
				b.WriteString(text[copied:start])
				b.WriteString(repl)
				copied = i
				changed = true
			}
		}
		if !changed {
			break
		}
		b.WriteString(text[copied:])
		text = b.String()
	}
	return text
}

func (l *Lexer) scanNumber() Token {
	startLine := l.line
	start := l.pos
	isFloat := false
	// Hex literals.
	if l.peekByte() == '0' && (l.byteAt(1) == 'x' || l.byteAt(1) == 'X') {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.peekByte()) {
			l.pos++
		}
		return Token{Kind: IntLit, Text: l.src[start:l.pos], Line: startLine}
	}
	for l.pos < len(l.src) && isDigit(l.peekByte()) {
		l.pos++
	}
	if l.peekByte() == '.' {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.pos++
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		next := l.byteAt(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.byteAt(2))) {
			isFloat = true
			l.pos += 2
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.pos++
			}
		}
	}
	text := l.src[start:l.pos]
	// Integer/float suffixes (L, UL, f, ...) are consumed and dropped.
	for {
		c := l.peekByte()
		if c == 'l' || c == 'L' || c == 'u' || c == 'U' {
			l.pos++
			continue
		}
		if (c == 'f' || c == 'F') && isFloat {
			l.pos++
			continue
		}
		break
	}
	kind := IntLit
	if isFloat {
		kind = FloatLit
	}
	return Token{Kind: kind, Text: text, Line: startLine}
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) scanString() Token {
	startLine := l.line
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) || l.peekByte() == '\n' {
			l.errorf("unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			return Token{Kind: StringLit, Text: b.String(), Line: startLine}
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				l.errorf("unterminated escape in string literal")
				break
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte(e)
			}
			continue
		}
		b.WriteByte(c)
	}
	return Token{Kind: StringLit, Text: b.String(), Line: startLine}
}

func (l *Lexer) scanChar() Token {
	startLine := l.line
	l.advance() // opening quote
	var val byte
	if l.pos >= len(l.src) {
		l.errorf("unterminated character literal")
		return Token{Kind: CharLit, Line: startLine}
	}
	c := l.advance()
	if c == '\\' && l.pos < len(l.src) {
		e := l.advance()
		switch e {
		case 'n':
			val = '\n'
		case 't':
			val = '\t'
		case '0':
			val = 0
		default:
			val = e
		}
	} else {
		val = c
	}
	if l.pos < len(l.src) && l.peekByte() == '\'' {
		l.advance()
	} else {
		l.errorf("unterminated character literal")
	}
	return Token{Kind: CharLit, Text: string(val), Line: startLine}
}

// opsByByte lists, for each byte, the multiOps entries that start with
// it, in multiOps order.
var opsByByte = func() (t [256][]string) {
	for _, op := range multiOps {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()

func (l *Lexer) scanOperator() Token {
	startLine := l.line
	rest := l.src[l.pos:]
	for _, op := range opsByByte[rest[0]] {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return Token{Kind: Punct, Text: op, Line: startLine}
		}
	}
	c := l.advance()
	switch c {
	case '{', '}', '(', ')', '[', ']', ';', ',', '+', '-', '*', '/', '%',
		'<', '>', '=', '!', '&', '|', '^', '~', '?', ':', '.':
		return Token{Kind: Punct, Text: rest[:1], Line: startLine}
	default:
		// string(c) is c's UTF-8 encoding as a rune, not the raw byte.
		l.errorf("unexpected character %q", string(c))
		return Token{Kind: Punct, Text: string(c), Line: startLine}
	}
}

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
	// macros holds every #define in the order first defined; most
	// sources have one or none, so a scan beats a map. macroFirst
	// marks the bytes their names start with.
	macros     []macro
	macroFirst [4]uint64
	errs       []error
	// pending holds the rest of a macro body being expanded, returned
	// at the use site's line before scanning resumes.
	pending     []Token
	pendingLine int
	// ahead is a token the parser peeked at, which Next returns first.
	ahead  Token
	peeked bool
	// strs holds the text of the string literals that needed an escape
	// decoded: each is a slice of its String, so the literals share a
	// few buffers instead of one each.
	strs strings.Builder
}

// macro is one object-like #define.
type macro struct {
	name string
	// toks is the tokenised body; nil for an empty one, which expands
	// to the name itself.
	toks []Token
	// text is the raw body, for textual expansion inside pragma
	// operands, where real preprocessors also expand object-like
	// macros. An empty redefinition leaves it as it was.
	text string
	// names reports whether text holds an identifier.
	names bool
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
func (l *Lexer) Next() Token { return l.scan() }

// macro returns the #define of name, or nil.
func (l *Lexer) macro(name string) *macro {
	if l.macroFirst[name[0]>>6]&(1<<(name[0]&63)) == 0 {
		return nil
	}
	for i := range l.macros {
		if m := &l.macros[i]; m.name[0] == name[0] && m.name == name {
			return m
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// identByte marks the bytes an identifier continues with.
var identByte = func() (t [256]bool) {
	for c := range t {
		t[c] = isIdentCont(byte(c))
	}
	return t
}()

func (l *Lexer) scan() Token {
	if l.peeked {
		l.peeked = false
		return l.ahead
	}
	if len(l.pending) > 0 {
		t := l.pending[0]
		l.pending = l.pending[1:]
		t.Line = l.pendingLine
		return t
	}
	for {
		src := l.src
		if l.pos < len(src) {
			if c := src[l.pos]; c <= ' ' || c == '/' || c == '\\' {
				l.skipSpaceAndComments()
			}
		}
		if l.pos >= len(src) {
			return Token{Kind: EOF, Line: l.line}
		}
		c := src[l.pos]
		switch {
		case c == '#':
			if t, emitted := l.scanDirectiveLine(); emitted {
				return t
			}
			continue // #define or unknown preprocessor line consumed
		case isIdentStart(c):
			start := l.pos
			i := start + 1
			for i < len(src) && identByte[src[i]] {
				i++
			}
			l.pos = i
			text := src[start:i]
			// Every keyword is 2 to 8 lower-case letters; most
			// identifiers are ruled out before the keyword switch.
			if n := len(text); n >= 2 && n <= 8 && c >= 'a' && c <= 'z' {
				if kw := keywordCode(text); kw != opNone {
					return Token{Kind: Keyword, op: kw, Text: text, Line: l.line}
				}
			}
			if len(l.macros) > 0 {
				if m := l.macro(text); m != nil && len(m.toks) > 0 {
					// Substitute, keeping the use site's line. A body's
					// tokens are not expanded again.
					l.pending, l.pendingLine = m.toks[1:], l.line
					t := m.toks[0]
					t.Line = l.line
					return t
				}
			}
			return Token{Kind: Ident, Text: text, Line: l.line}
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

// skipSpaceAndComments moves past white space, backslash-newlines and
// comments.
func (l *Lexer) skipSpaceAndComments() {
	src, pos, line := l.src, l.pos, l.line
loop:
	for pos < len(src) {
		c := src[pos]
		if c == ' ' {
			pos++
			continue
		}
		if c > ' ' && c != '/' && c != '\\' {
			break
		}
		switch c {
		case '\n':
			line++
			pos++
		case '\t', '\r':
			pos++
		case '\\':
			if pos+1 == len(src) || src[pos+1] != '\n' {
				break loop
			}
			pos += 2
			line++
		case '/':
			if pos+1 == len(src) {
				break loop
			}
			switch src[pos+1] {
			case '/':
				if i := strings.IndexByte(src[pos:], '\n'); i >= 0 {
					pos += i
				} else {
					pos = len(src)
				}
			case '*':
				body := src[pos+2:]
				end := strings.Index(body, "*/")
				if end < 0 {
					l.pos, l.line = len(src), line+strings.Count(body, "\n")
					l.errorf("unterminated block comment")
					return
				}
				line += strings.Count(body[:end], "\n")
				pos += 2 + end + 2
			default:
				break loop
			}
		default:
			break loop
		}
	}
	l.pos, l.line = pos, line
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
		l.recordDefine(strings.TrimSpace(strings.TrimPrefix(trimmed, "define")), startLine)
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

// readLogicalLine consumes the rest of the current line, folding
// backslash continuations, and returns its text: a substring of the
// source unless a continuation was folded.
func (l *Lexer) readLogicalLine() string {
	start := l.pos
	end := len(l.src)
	if i := strings.IndexByte(l.src[start:], '\n'); i >= 0 {
		end = start + i
	}
	if end > start && end < len(l.src) && l.src[end-1] == '\\' {
		// A continuation: fold from the backslash on.
		l.pos = end - 1
		var b strings.Builder
		b.WriteString(l.src[start:l.pos])
		return l.foldLine(&b)
	}
	l.pos = end
	if l.pos < len(l.src) {
		l.advance()
	}
	return l.src[start:end]
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
	m := l.macro(name)
	if m == nil {
		l.macros = append(l.macros, macro{name: name})
		l.macroFirst[name[0]>>6] |= 1 << (name[0] & 63)
		m = &l.macros[len(l.macros)-1]
	}
	body := strings.TrimSpace(rest[i:])
	if body == "" {
		m.toks = nil
		return
	}
	sub := Lexer{src: body, line: 1}
	var buf [8]Token
	toks := buf[:0]
	for {
		t := sub.Next()
		if t.Kind == EOF {
			break
		}
		t.Line = line
		toks = append(toks, t)
	}
	l.errs = append(l.errs, sub.errs...)
	m.toks = append([]Token(nil), toks...)
	m.text = body
	m.names = strings.ContainsFunc(body, func(r rune) bool { return r < 0x80 && isIdentStart(byte(r)) })
}

// expandInText performs textual object-like macro substitution over
// free text (pragma operands). A few passes handle shallow macro
// chains; corpus macros never recurse.
func (l *Lexer) expandInText(text string) string {
	if len(l.macros) == 0 {
		return text
	}
	for pass := 0; pass < 4; pass++ {
		// b receives text up to copied, the first byte not yet
		// written, once a macro has been found. Only a body that
		// names an identifier can leave one for the next pass.
		var b strings.Builder
		changed, rescan := false, false
		copied := 0
		i := 0
		for i < len(text) {
			if !isIdentStart(text[i]) {
				i++
				continue
			}
			start := i
			for i < len(text) && identByte[text[i]] {
				i++
			}
			if m := l.macro(text[start:i]); m != nil && m.text != "" {
				if !changed {
					b.Grow(len(text) + len(m.text))
				}
				b.WriteString(text[copied:start])
				b.WriteString(m.text)
				copied = i
				changed = true
				rescan = rescan || m.names
			}
		}
		if !changed {
			break
		}
		b.WriteString(text[copied:])
		text = b.String()
		if !rescan {
			break
		}
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

// minStrBuffer is the smallest buffer the lexer takes for decoded
// string literals.
const minStrBuffer = 128

func (l *Lexer) scanString() Token {
	startLine := l.line
	l.advance() // opening quote
	start := l.pos
	// A literal without escapes is its source text.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return Token{Kind: StringLit, Text: l.src[start : l.pos-1], Line: startLine}
		}
		if c == '\\' || c == '\n' {
			break
		}
		l.pos++
	}
	// The decoded text is at most as long as the source text up to the
	// closing quote or the line's end. A buffer too small for it is
	// left to the literals already cut from it, not copied.
	end := l.pos
	for end < len(l.src) && l.src[end] != '"' && l.src[end] != '\n' {
		if l.src[end] == '\\' {
			end++
		}
		end++
	}
	if need := end - start; l.strs.Cap()-l.strs.Len() < need {
		l.strs = strings.Builder{}
		l.strs.Grow(max(need, minStrBuffer))
	}
	mark := l.strs.Len()
	b := &l.strs
	b.WriteString(l.src[start:l.pos])
	for {
		if l.pos >= len(l.src) || l.peekByte() == '\n' {
			l.errorf("unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				l.errorf("unterminated escape in string literal")
				break
			}
			b.WriteByte(unescape(l.advance()))
			continue
		}
		b.WriteByte(c)
	}
	return Token{Kind: StringLit, Text: b.String()[mark:], Line: startLine}
}

// byteText holds every byte in order, so a char literal's one-byte
// text is a slice of it rather than an allocation.
var byteText = func() string {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return string(b)
}()

// unescape decodes the simple escape sequence backslash e as C does;
// any other byte stands for itself.
func unescape(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case 'a':
		return '\a'
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'v':
		return '\v'
	case '0':
		return 0
	}
	return e
}

// scanChar reads a one-byte character literal. Its text is that byte,
// raw or decoded from a simple escape, whatever its value.
func (l *Lexer) scanChar() Token {
	startLine := l.line
	l.advance() // opening quote
	if l.pos >= len(l.src) {
		l.errorf("unterminated character literal")
		return Token{Kind: CharLit, Line: startLine}
	}
	val := l.advance()
	if val == '\\' && l.pos < len(l.src) {
		val = unescape(l.advance())
	}
	if l.pos < len(l.src) && l.peekByte() == '\'' {
		l.advance()
	} else {
		l.errorf("unterminated character literal")
	}
	return Token{Kind: CharLit, Text: byteText[val : int(val)+1], Line: startLine}
}

// singleOps codes each one-byte punctuator by its byte.
var singleOps = func() (t [256]op) {
	for o := opLBrace; o <= opPeriod; o++ {
		t[opText[o][0]] = o
	}
	return t
}()

// scanOperator takes the longest punctuator at the current byte.
func (l *Lexer) scanOperator() Token {
	src, pos := l.src, l.pos
	c := src[pos]
	var c1, c2 byte
	if pos+1 < len(src) {
		c1 = src[pos+1]
	}
	if pos+2 < len(src) {
		c2 = src[pos+2]
	}
	o := singleOps[c]
	switch c {
	case '<':
		switch {
		case c1 == '<' && c2 == '=':
			o = opShlAssign
		case c1 == '=':
			o = opLeq
		case c1 == '<':
			o = opShl
		}
	case '>':
		switch {
		case c1 == '>' && c2 == '=':
			o = opShrAssign
		case c1 == '=':
			o = opGeq
		case c1 == '>':
			o = opShr
		}
	case '.':
		if c1 == '.' && c2 == '.' {
			o = opEllipsis
		}
	case '=':
		if c1 == '=' {
			o = opEql
		}
	case '!':
		if c1 == '=' {
			o = opNeq
		}
	case '&':
		switch c1 {
		case '&':
			o = opLAnd
		case '=':
			o = opAndAssign
		}
	case '|':
		switch c1 {
		case '|':
			o = opLOr
		case '=':
			o = opOrAssign
		}
	case '+':
		switch c1 {
		case '+':
			o = opInc
		case '=':
			o = opAddAssign
		}
	case '-':
		switch c1 {
		case '-':
			o = opDec
		case '=':
			o = opSubAssign
		case '>':
			o = opArrow
		}
	case '*':
		if c1 == '=' {
			o = opMulAssign
		}
	case '/':
		if c1 == '=' {
			o = opQuoAssign
		}
	case '%':
		if c1 == '=' {
			o = opRemAssign
		}
	case '^':
		if c1 == '=' {
			o = opXorAssign
		}
	case ':':
		if c1 == ':' {
			o = opScope
		}
	}
	if o == opNone {
		l.pos++
		// string(c) is c's UTF-8 encoding as a rune, not the raw byte.
		l.errorf("unexpected character %q", string(c))
		return Token{Kind: Punct, Text: string(c), Line: l.line}
	}
	text := opText[o]
	l.pos += len(text)
	return Token{Kind: Punct, op: o, Text: text, Line: l.line}
}

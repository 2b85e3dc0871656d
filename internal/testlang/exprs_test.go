package testlang

import (
	"strconv"
	"testing"
)

func TestParseExprString(t *testing.T) {
	cases := []struct {
		src  string
		ok   bool
		kind string
	}{
		{"n * 2", true, "*testlang.BinaryExpr"},
		{"42", true, "*testlang.IntLitExpr"},
		{"x", true, "*testlang.IdentExpr"},
		{"(a + b) / 2", true, "*testlang.BinaryExpr"},
		{"f(x, y)", true, "*testlang.CallExpr"},
		{"a[i]", true, "*testlang.IndexExpr"},
		{"", false, ""},
		{"n +", false, ""},
		{"1 2", false, ""}, // trailing token
	}
	for _, c := range cases {
		e, errs := ParseExprString(c.src)
		if c.ok && len(errs) > 0 {
			t.Errorf("ParseExprString(%q) errors: %v", c.src, errs)
			continue
		}
		if !c.ok {
			if len(errs) == 0 {
				t.Errorf("ParseExprString(%q) should error", c.src)
			}
			continue
		}
		if got := typeName(e); got != c.kind {
			t.Errorf("ParseExprString(%q) = %s, want %s", c.src, got, c.kind)
		}
	}
}

func typeName(e Expr) string {
	switch e.(type) {
	case *BinaryExpr:
		return "*testlang.BinaryExpr"
	case *IntLitExpr:
		return "*testlang.IntLitExpr"
	case *IdentExpr:
		return "*testlang.IdentExpr"
	case *CallExpr:
		return "*testlang.CallExpr"
	case *IndexExpr:
		return "*testlang.IndexExpr"
	default:
		return "?"
	}
}

func TestParseSections(t *testing.T) {
	secs, errs := ParseSections("a[0:n], b, c[2:8]")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(secs) != 3 {
		t.Fatalf("sections = %d", len(secs))
	}
	if secs[0].Name != "a" || secs[0].Lo == nil || secs[0].Len == nil {
		t.Fatalf("section 0 = %+v", secs[0])
	}
	if secs[1].Name != "b" || secs[1].Lo != nil {
		t.Fatalf("section 1 = %+v", secs[1])
	}
	if secs[2].Name != "c" {
		t.Fatalf("section 2 = %+v", secs[2])
	}
	lo, ok := secs[2].Lo.(*IntLitExpr)
	if !ok || lo.Value != 2 {
		t.Fatalf("section 2 lo = %#v", secs[2].Lo)
	}
}

func TestParseSectionsSingleElement(t *testing.T) {
	secs, errs := ParseSections("a[i]")
	if len(errs) != 0 || len(secs) != 1 {
		t.Fatalf("secs=%v errs=%v", secs, errs)
	}
	ln, ok := secs[0].Len.(*IntLitExpr)
	if !ok || ln.Value != 1 {
		t.Fatalf("single-element length = %#v", secs[0].Len)
	}
}

func TestParseSectionsImplicitLo(t *testing.T) {
	secs, errs := ParseSections("a[:n]")
	if len(errs) != 0 || len(secs) != 1 {
		t.Fatalf("secs=%v errs=%v", secs, errs)
	}
	lo, ok := secs[0].Lo.(*IntLitExpr)
	if !ok || lo.Value != 0 {
		t.Fatalf("implicit lo = %#v", secs[0].Lo)
	}
}

func TestParseSectionsErrors(t *testing.T) {
	for _, bad := range []string{
		"a[0:n", "123", "a b", "a[0:]", "+:x",
	} {
		if _, errs := ParseSections(bad); len(errs) == 0 {
			t.Errorf("ParseSections(%q) should error", bad)
		}
	}
}

func TestParseSectionsExpressionBounds(t *testing.T) {
	secs, errs := ParseSections("a[lo*2:(hi-lo)]")
	if len(errs) != 0 || len(secs) != 1 {
		t.Fatalf("secs=%v errs=%v", secs, errs)
	}
	if _, ok := secs[0].Lo.(*BinaryExpr); !ok {
		t.Fatalf("lo = %#v", secs[0].Lo)
	}
}

func TestParseSectionsEmptyParts(t *testing.T) {
	secs, errs := ParseSections("a, , b")
	if len(errs) != 0 {
		t.Fatalf("errors on empty part: %v", errs)
	}
	if len(secs) != 2 {
		t.Fatalf("sections = %d, want 2", len(secs))
	}
}

// TestParseInt checks the integer-literal reader against strconv's
// base-0 parse, which it stands in for, on each kind of literal the
// lexer emits and on both sides of int64's range.
func TestParseInt(t *testing.T) {
	for _, s := range []string{"0", "7", "42", "010", "08", "0x1F", "0X0", "1024",
		"999999999999999999", "1000000000000000000", "9223372036854775807", "9223372036854775808"} {
		v, err := parseInt(s)
		w, werr := strconv.ParseInt(s, 0, 64)
		if v != w || (err == nil) != (werr == nil) {
			t.Errorf("parseInt(%q) = %d, %v; strconv gives %d, %v", s, v, err, w, werr)
		}
	}
}

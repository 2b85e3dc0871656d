package testlang

import (
	"reflect"
	"testing"

	"repro/internal/spec"
)

func TestParseDirectiveBasics(t *testing.T) {
	d, ok := ParseDirective("acc parallel loop reduction(+:sum) copyin(a[0:N])", spec.OpenACC, 3)
	if !ok {
		t.Fatal("directive not recognised")
	}
	if d.Name != "parallel loop" || !d.Known {
		t.Fatalf("directive = %+v", d)
	}
	if d.Pos() != 3 {
		t.Fatalf("pos = %d", d.Pos())
	}
	if len(d.Clauses) != 2 {
		t.Fatalf("clauses = %+v", d.Clauses)
	}
	if d.Clauses[0].Name != "reduction" || d.Clauses[0].Arg != "+:sum" {
		t.Fatalf("clause 0 = %+v", d.Clauses[0])
	}
	if d.Clauses[1].Name != "copyin" || d.Clauses[1].Arg != "a[0:N]" {
		t.Fatalf("clause 1 = %+v", d.Clauses[1])
	}
}

func TestParseDirectiveWrongSentinel(t *testing.T) {
	if _, ok := ParseDirective("omp parallel for", spec.OpenACC, 1); ok {
		t.Fatal("omp pragma accepted as OpenACC directive")
	}
	if _, ok := ParseDirective("once", spec.OpenACC, 1); ok {
		t.Fatal("#pragma once accepted as directive")
	}
}

func TestParseDirectiveUnknownName(t *testing.T) {
	d, ok := ParseDirective("acc parallell loop", spec.OpenACC, 1)
	if !ok {
		t.Fatal("sentinel matched, should return unknown directive")
	}
	if d.Known {
		t.Fatal("misspelled directive marked known")
	}
	if d.Name != "parallell" {
		t.Fatalf("name = %q", d.Name)
	}
}

func TestParseDirectiveGreedyName(t *testing.T) {
	d, ok := ParseDirective("omp target teams distribute parallel for map(tofrom: x[0:n]) num_teams(4)", spec.OpenMP, 1)
	if !ok || !d.Known {
		t.Fatalf("directive = %+v", d)
	}
	if d.Name != "target teams distribute parallel for" {
		t.Fatalf("name = %q", d.Name)
	}
	if len(d.Clauses) != 2 || d.Clauses[0].Name != "map" || d.Clauses[1].Name != "num_teams" {
		t.Fatalf("clauses = %+v", d.Clauses)
	}
}

func TestParseDirectiveClauseWithSpaces(t *testing.T) {
	d, ok := ParseDirective("acc parallel loop reduction( + : sum )", spec.OpenACC, 1)
	if !ok || len(d.Clauses) != 1 {
		t.Fatalf("directive = %+v", d)
	}
	if d.Clauses[0].Name != "reduction" {
		t.Fatalf("clause = %+v", d.Clauses[0])
	}
	op, vars, ok := ReductionParts(d.Clauses[0].Arg)
	if !ok || op != "+" || len(vars) != 1 || vars[0] != "sum" {
		t.Fatalf("reduction parts = %q %v %v", op, vars, ok)
	}
}

func TestParseDirectiveBareClauses(t *testing.T) {
	d, ok := ParseDirective("acc loop independent gang vector", spec.OpenACC, 1)
	if !ok || d.Name != "loop" {
		t.Fatalf("directive = %+v", d)
	}
	var names []string
	for _, c := range d.Clauses {
		names = append(names, c.Name)
		if c.HasParens {
			t.Errorf("clause %q should have no parens", c.Name)
		}
	}
	if !reflect.DeepEqual(names, []string{"independent", "gang", "vector"}) {
		t.Fatalf("clause names = %v", names)
	}
}

func TestDirectiveString(t *testing.T) {
	d, _ := ParseDirective("acc parallel loop reduction(+:sum) async(1)", spec.OpenACC, 1)
	want := "acc parallel loop reduction(+:sum) async(1)"
	if got := d.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestClauseVars(t *testing.T) {
	cases := []struct {
		arg  string
		want []string
	}{
		{"a", []string{"a"}},
		{"a, b, c", []string{"a", "b", "c"}},
		{"a[0:n]", []string{"a"}},
		{"a[0:n], b[0:n]", []string{"a", "b"}},
		{"+:sum", []string{"sum"}},
		{"tofrom: x[0:n], y", []string{"x", "y"}},
		{"max:best", []string{"best"}},
		{"", nil},
	}
	for _, c := range cases {
		got := ClauseVars(c.arg)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ClauseVars(%q) = %v, want %v", c.arg, got, c.want)
		}
	}
}

func TestClauseVarsSkipsSectionBounds(t *testing.T) {
	// The section bounds 0 and n must not leak: n is a bound, not a
	// mapped variable. (Bounds are validated separately by sema.)
	got := ClauseVars("tofrom: a[0:n]")
	if !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("ClauseVars = %v, want [a]", got)
	}
}

func TestReductionPartsErrors(t *testing.T) {
	if _, _, ok := ReductionParts("sum"); ok {
		t.Fatal("reduction without colon accepted")
	}
	op, vars, ok := ReductionParts("min:lo, hi")
	if !ok || op != "min" || len(vars) != 2 {
		t.Fatalf("parts = %q %v %v", op, vars, ok)
	}
}

func TestMapParts(t *testing.T) {
	mt, vars := MapParts("tofrom: a[0:n]")
	if mt != "tofrom" || !reflect.DeepEqual(vars, []string{"a"}) {
		t.Fatalf("MapParts = %q %v", mt, vars)
	}
	mt, vars = MapParts("a, b")
	if mt != "tofrom" || len(vars) != 2 {
		t.Fatalf("default map type = %q %v", mt, vars)
	}
	mt, _ = MapParts("alloc: scratch")
	if mt != "alloc" {
		t.Fatalf("map type = %q", mt)
	}
}

func TestSplitDirectiveWords(t *testing.T) {
	words := splitDirectiveWords("acc parallel loop reduction(+ : sum) copyin(a[0:n], b[0:n])", nil)
	want := []string{"acc", "parallel", "loop", "reduction(+ : sum)", "copyin(a[0:n], b[0:n])"}
	if !reflect.DeepEqual(words, want) {
		t.Fatalf("words = %q, want %q", words, want)
	}
}

package spec

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	argNames   = [...]string{"none", "varlist", "int", "reduction", "map", "optint", "if"}
	assocNames = [...]string{"none", "block", "loop", "statement"}
)

// dumpTables renders both dialects' tables canonically: per dialect its
// MaxVersion, then every directive in name order with its association,
// version, standalone flag and sorted clause=arg pairs.
func dumpTables() string {
	var b strings.Builder
	for _, s := range []*Spec{ForDialect(OpenACC), ForDialect(OpenMP)} {
		fmt.Fprintf(&b, "%s max_version=%d\n", s.Dialect, s.MaxVersion)
		for _, name := range s.Directives() {
			d, _ := s.Lookup(name)
			fmt.Fprintf(&b, "%s: assoc=%s version=%d standalone=%t\n", d.Name, assocNames[d.Association], d.Version, d.Standalone)
			var pairs []string
			seen := map[string]bool{}
			for _, g := range d.clauses {
				for _, c := range g {
					if !seen[c.name] {
						seen[c.name] = true
						arg, _ := d.Clause(c.name)
						pairs = append(pairs, c.name+"="+argNames[arg])
					}
				}
			}
			sort.Strings(pairs)
			for _, p := range pairs {
				fmt.Fprintf(&b, "  %s\n", p)
			}
		}
	}
	return b.String()
}

// TestTablesGolden pins every directive and clause of both tables to
// testdata/tables.golden, which was written from the map-based tables
// the static ones replaced.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := dumpTables()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("tables differ from testdata/tables.golden at line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}

// TestNoConflictingClauseShapes guards Clause's first-match rule:
// overlapping groups (private in both target and teams, say) must
// agree on the argument shape.
func TestNoConflictingClauseShapes(t *testing.T) {
	for _, s := range []*Spec{ForDialect(OpenACC), ForDialect(OpenMP)} {
		for i := range s.directives {
			d := &s.directives[i]
			shape := map[string]ClauseArg{}
			for _, g := range d.clauses {
				for _, c := range g {
					if prev, ok := shape[c.name]; ok && prev != c.arg {
						t.Errorf("%v %q: clause %q listed as %s and %s", s.Dialect, d.Name, c.name, argNames[prev], argNames[c.arg])
					}
					shape[c.name] = c.arg
				}
			}
		}
	}
}

var (
	sinkSpec *Spec
	sinkDir  *Directive
	sinkArg  ClauseArg
	sinkOK   bool
	sinkN    int
)

func TestLookupsDoNotAllocate(t *testing.T) {
	omp := ForDialect(OpenMP)
	words := []string{"target", "teams", "distribute", "parallel", "for", "map(tofrom:a)"}
	dir, _ := omp.Lookup("target teams distribute parallel for")
	cases := []struct {
		name string
		f    func()
	}{
		{"ForDialect", func() { sinkSpec = ForDialect(OpenACC) }},
		{"Lookup", func() { sinkDir, sinkOK = omp.Lookup("target teams distribute parallel for") }},
		{"Clause", func() { sinkArg, sinkOK = dir.Clause("schedule") }},
		{"HasClause", func() { sinkOK = omp.HasClause("parallel for", "reduction") }},
		{"LongestDirective", func() { sinkDir, sinkN, sinkOK = omp.LongestDirective(words) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", c.name, n)
		}
	}
}

// TestForDialectConcurrent runs under -race in CI: the tables are
// shared, so concurrent callers must all see the same read-only value.
func TestForDialectConcurrent(t *testing.T) {
	acc, omp := ForDialect(OpenACC), ForDialect(OpenMP)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a, o := ForDialect(OpenACC), ForDialect(OpenMP)
				if a != acc || o != omp {
					t.Error("ForDialect returned a different table")
					return
				}
				if !a.HasClause("parallel loop", "gang") || !o.HasClause("target", "map") {
					t.Error("shared table read wrong")
					return
				}
			}
		}()
	}
	wg.Wait()
}

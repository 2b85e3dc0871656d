package testlang

import (
	"testing"

	"repro/internal/spec"
)

// FuzzRenderRoundTrip checks the renderer on every input that parses
// without errors, as C and as C++: the rendered text parses without
// errors too, and rendering that gives the same text, so Render is a
// fixed point after one round trip. Plain go test runs the seeds in
// testdata/fuzz/FuzzRenderRoundTrip; go test -fuzz FuzzRenderRoundTrip
// searches for more.
func FuzzRenderRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, openmp bool) {
		dialect := spec.OpenACC
		if openmp {
			dialect = spec.OpenMP
		}
		for _, lang := range []Language{LangC, LangCPP} {
			file, errs := ParseFile(src, lang, dialect)
			if len(errs) > 0 {
				continue
			}
			out := Render(file)
			again, errs := ParseFile(out, lang, dialect)
			if len(errs) > 0 {
				t.Fatalf("%s: rendered text does not parse: %v\n--- input\n%s\n--- rendered\n%s", lang, errs, src, out)
			}
			if out2 := Render(again); out2 != out {
				t.Fatalf("%s: render is not a fixed point:\n--- first\n%s\n--- second\n%s", lang, out, out2)
			}
		}
	})
}

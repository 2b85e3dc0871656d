package llm4vv

// The checker's observable behaviour pinned as one digest: every C and
// C++ file of both dialects' Part-One and Part-Two suites, at the
// suites' own seeds, compiled by the dialect's compiler. A checker
// change that claims to alter only how it decides must leave this
// digest untouched; one that accepts or rejects another file, or moves
// a byte of a diagnostic, does not. TestMachineCorpusDigest pins what
// the accepted files do when they run; this pins the rest.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

const (
	// compileDigest is SHA-256 over (name, OK, ReturnCode, Stderr) of
	// every C and C++ file.
	compileDigest = "53ce9f30c6149807e40e14ae2ca3ed65d3013ecac8f5822d0cba1e1c9d19dbb2"
	compileFiles  = 3769
)

func TestCompileDigest(t *testing.T) {
	h := sha256.New()
	files := 0
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		pers := compiler.ForDialect(d)
		for _, s := range []SuiteSpec{PartOneSpec(d), PartTwoSpec(d)} {
			suite, err := BuildSuite(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, pf := range suite {
				if pf.Lang == testlang.LangFortran {
					continue
				}
				res := pers.Compile(pf.Name, pf.Source, pf.Lang)
				writeField(h, pf.Name)
				ok := int64(0)
				if res.OK {
					ok = 1
				}
				writeInt(h, ok)
				writeInt(h, int64(res.ReturnCode))
				writeField(h, res.Stderr)
				files++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if files != compileFiles || got != compileDigest {
		t.Fatalf("compile digest over %d files = %s, want %s over %d files",
			files, got, compileDigest, compileFiles)
	}
}

package llm4vv

// The C front end's observable behaviour pinned as one digest: every C
// and C++ file of both dialects' Part-One and Part-Two suites, probed
// at the suites' own seeds, parsed and rendered back to source, with
// every lexical and syntax error in order. A front-end change that
// claims to alter only speed must leave this digest untouched; one that
// moves a rendered byte, an error message or the order of two errors
// does not.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/spec"
	"repro/internal/testlang"
)

const (
	// frontEndDigest is SHA-256 over (name, rendered source, error
	// count, each error's text) of every C and C++ file.
	frontEndDigest = "41137500cbd51cca0fc0b01301db9df39ce99b7a9ab8cd2d03efef5e5d9f31f6"
	frontEndFiles  = 3769
)

func TestFrontEndDigest(t *testing.T) {
	h := sha256.New()
	files := 0
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		for _, s := range []SuiteSpec{PartOneSpec(d), PartTwoSpec(d)} {
			suite, err := BuildSuite(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, pf := range suite {
				if pf.Lang == testlang.LangFortran {
					continue
				}
				f, errs := testlang.ParseFile(pf.Source, pf.Lang, d)
				writeField(h, pf.Name)
				writeField(h, testlang.Render(f))
				writeInt(h, int64(len(errs)))
				for _, e := range errs {
					writeField(h, e.Error())
				}
				files++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if files != frontEndFiles || got != frontEndDigest {
		t.Fatalf("front-end digest over %d files = %s, want %s over %d files",
			files, got, frontEndDigest, frontEndFiles)
	}
}

package llm4vv

// The machine's observable behaviour pinned as one digest: every
// Part-Two file of both dialects, at a fixed corpus seed, compiled and
// run through the standard agent toolchain. An interpreter change that
// claims to alter only speed must leave this digest untouched; one that
// moves a single return code, output byte, trap or step count does not.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/agent"
	"repro/internal/spec"
)

const (
	// machineDigestSeed is the corpus seed the digest was recorded at.
	machineDigestSeed = 4242
	// machineCorpusDigest is SHA-256 over (name, ReturnCode, Stdout,
	// Stderr, Trap, Steps) of every run, Steps omitted for step-limit
	// traps, whose count depends on how the budget is split between
	// concurrent workers.
	machineCorpusDigest = "a9bf9969a9381f41b90a0a90b49e568d3a95826b9c6a9959079f29b9e01438fe"
	machineDigestRuns   = 1270
)

func TestMachineCorpusDigest(t *testing.T) {
	h := sha256.New()
	runs := 0
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		s := PartTwoSpec(d)
		s.Seed = machineDigestSeed
		suite, err := BuildSuite(s)
		if err != nil {
			t.Fatal(err)
		}
		tools := agent.NewTools(d)
		for _, pf := range suite {
			out := tools.Gather(pf.Name, pf.Source, pf.Lang)
			if out.Run == nil {
				continue
			}
			r := out.Run
			writeField(h, pf.Name)
			writeInt(h, int64(r.ReturnCode))
			writeField(h, r.Stdout)
			writeField(h, r.Stderr)
			writeField(h, r.Trap)
			if r.Trap != "step-limit" {
				writeInt(h, r.Steps)
			}
			runs++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if runs != machineDigestRuns || got != machineCorpusDigest {
		t.Fatalf("machine corpus digest over %d runs = %s, want %s over %d runs",
			runs, got, machineCorpusDigest, machineDigestRuns)
	}
}

// writeField hashes a length-prefixed string, so field boundaries
// cannot shift between runs.
func writeField(h hash.Hash, s string) {
	writeInt(h, int64(len(s)))
	h.Write([]byte(s))
}

func writeInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

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
	"repro/internal/machine"
	"repro/internal/spec"
)

const (
	// machineDigestSeed is the corpus seed the digest was recorded at.
	machineDigestSeed = 4242
	// machineCorpusDigest is SHA-256 over (name, ReturnCode, Stdout,
	// Stderr, Trap, Steps) of every run.
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
			writeInt(h, r.Steps)
			runs++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if runs != machineDigestRuns || got != machineCorpusDigest {
		t.Fatalf("machine corpus digest over %d runs = %s, want %s over %d runs",
			runs, got, machineCorpusDigest, machineDigestRuns)
	}
}

const (
	// machineCutDigest is SHA-256 over (name, L, ReturnCode, Stdout,
	// Stderr, Trap, Steps) of every digest-corpus run rerun at each
	// StepLimit L of cutPoints.
	machineCutDigest = "abe30eed7cb0f432d1572d3e8ac89b56996590f38ef740b3e88c8380c59e28de"
	machineCutRuns   = 12700
)

// cutPoints are the step limits a run of full steps is cut at: the
// first few steps, fractions of the run, and its last few steps.
func cutPoints(full int64) []int64 {
	var out []int64
	for _, l := range []int64{1, 2, 3, 5, 7, full / 3, full / 2, full - 3, full - 2, full - 1} {
		if l > 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestMachineCutDigest pins where and how a run stops when its step
// budget runs out mid-program: the digest corpus holds no step-limit
// run of its own, so this is what pins that the machine charges every
// step where a walk of the AST would, in its closures and in its loop
// kernels alike.
func TestMachineCutDigest(t *testing.T) {
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
			res := tools.Personality.Compile(pf.Name, pf.Source, pf.Lang)
			if !res.OK || res.Object == nil {
				continue
			}
			full := machine.Run(res.Object, tools.MachineOpts)
			for _, l := range cutPoints(full.Steps) {
				opts := tools.MachineOpts
				opts.StepLimit = l
				r := machine.Run(res.Object, opts)
				writeField(h, pf.Name)
				writeInt(h, l)
				writeInt(h, int64(r.ReturnCode))
				writeField(h, r.Stdout)
				writeField(h, r.Stderr)
				writeField(h, r.Trap)
				writeInt(h, r.Steps)
				runs++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if runs != machineCutRuns || got != machineCutDigest {
		t.Fatalf("machine cut digest over %d runs = %s, want %s over %d runs",
			runs, got, machineCutDigest, machineCutRuns)
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

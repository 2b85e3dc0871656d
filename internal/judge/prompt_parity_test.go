package judge

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/spec"
)

// referenceToolBlock is the original (pre-pooling) tool-block
// renderer, kept verbatim as the parity oracle.
func referenceToolBlock(d spec.Dialect, info *ToolInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "When compiled with a compliant %s compiler, the below code causes the following outputs:\n", d)
	fmt.Fprintf(&b, "Compiler return code: %d\n", info.CompileRC)
	fmt.Fprintf(&b, "Compiler STDERR: %s\n", info.CompileStderr)
	fmt.Fprintf(&b, "Compiler STDOUT: %s\n", info.CompileStdout)
	switch {
	case info.Ran:
		b.WriteString("When the compiled code is run, it gives the following results:\n")
		fmt.Fprintf(&b, "Return code: %d\n", info.RunRC)
		fmt.Fprintf(&b, "STDERR: %s\n", info.RunStderr)
		fmt.Fprintf(&b, "STDOUT: %s\n", info.RunStdout)
	case info.CompileRC != 0:
		b.WriteString("The code could not be executed because compilation failed.\n")
	default:
		b.WriteString("The compiled program was not executed.\n")
	}
	return b.String()
}

// referenceBuildPrompt is the original strings.Builder prompt
// assembly, kept verbatim: the pooled assembler must reproduce its
// output byte for byte for every style, dialect, and tool outcome.
func referenceBuildPrompt(style Style, d spec.Dialect, code string, info *ToolInfo) string {
	var b strings.Builder
	switch style {
	case Direct:
		fmt.Fprintf(&b, "Review the following %s code and evaluate it based on the following criteria:\n\n", d)
		b.WriteString(criteria(d))
		b.WriteString(`Based on these criteria, evaluate the code in a brief summary, then respond with precisely "FINAL JUDGEMENT: correct" (or incorrect).
You MUST include the exact phrase "FINAL JUDGEMENT: correct" in your evaluation if you believe the code is correct. Otherwise, you must include the phrase "FINAL JUDGEMENT: incorrect" in your evaluation.
`)
		b.WriteString("Here is the code:\n")
		b.WriteString(code)
	case AgentDirect:
		b.WriteString(criteria(d))
		b.WriteString(`Based on these criteria, evaluate the code and determine if it is a valid or invalid test. Think step by step.
You MUST include the exact phrase, "FINAL JUDGEMENT: valid" in your response if you deem the test to be valid.
If you deem the test to be invalid, include the exact phrase "FINAL JUDGEMENT: invalid" in your response instead.
Here is some information about the code to help you.
`)
		if info != nil {
			b.WriteString(referenceToolBlock(d, info))
		}
		b.WriteString("Here is the code:\n")
		b.WriteString(code)
	case AgentIndirect:
		fmt.Fprintf(&b, "Describe what the below %s program will do when run. Think step by step.\n", d)
		b.WriteString("Here is some information about the code to help you; you do not have to compile or run the code yourself.\n")
		if info != nil {
			b.WriteString(referenceToolBlock(d, info))
		}
		fmt.Fprintf(&b, `Using this information, describe in full detail how the below code works, what the below code will do when run, and suggest why the below code might have been written this way.
Then, based on that description, determine whether the described program would be a valid or invalid compiler test for %[1]s compilers.
You MUST include the exact phrase "FINAL JUDGEMENT: valid" in your final response if you believe that your description of the below %[1]s code describes a valid compiler test; otherwise, your final response MUST include the exact phrase "FINAL JUDGEMENT: invalid".
`, d)
		b.WriteString("Here is the code for you to analyze:\n")
		b.WriteString(code)
	}
	return b.String()
}

// TestBuildPromptParity: the pooled, precomputed-segment assembler
// reproduces the original template rendering byte-identically across
// every style × dialect × tool-outcome combination (the acceptance
// bar for the zero-allocation rewrite — prompts feed deterministic
// endpoints, so a single changed byte changes verdicts).
func TestBuildPromptParity(t *testing.T) {
	infos := []*ToolInfo{
		nil,
		{},
		{CompileRC: 0, CompileStdout: "built fine", Ran: true, RunRC: 0, RunStdout: "PASS\n"},
		{CompileRC: 2, CompileStderr: "error: bad clause\nnote: see spec", Ran: false},
		{CompileRC: 0, CompileStdout: "warn", Ran: true, RunRC: 139, RunStderr: "segfault"},
		{CompileRC: -1, CompileStderr: strings.Repeat("x", 3000)},
	}
	codes := []string{"", "int main(){}\n", strings.Repeat("#pragma acc parallel\n{}\n", 200)}
	for _, style := range []Style{Direct, AgentDirect, AgentIndirect} {
		for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
			j := &Judge{Style: style, Dialect: d}
			for ii, info := range infos {
				for ci, code := range codes {
					got := j.BuildPrompt(code, info)
					want := referenceBuildPrompt(style, d, code, info)
					if got != want {
						t.Fatalf("style=%v dialect=%v info#%d code#%d: prompt diverged\n got: %q\nwant: %q",
							style, d, ii, ci, got, want)
					}
				}
			}
		}
	}
}

// TestBuildPromptReusedBufferIsolation: a returned prompt must not
// alias the pooled buffer — later BuildPrompt calls reusing the
// buffer cannot mutate earlier results.
func TestBuildPromptReusedBufferIsolation(t *testing.T) {
	j := &Judge{Style: Direct, Dialect: spec.OpenACC}
	first := j.BuildPrompt("AAAA", nil)
	snapshot := strings.Clone(first)
	for i := 0; i < 100; i++ {
		j.BuildPrompt(strings.Repeat("B", 64), nil)
	}
	if first != snapshot {
		t.Fatal("pooled buffer reuse mutated a previously returned prompt")
	}
}

// TestPromptKeyHexMatchesStoreHash: PromptKey.Hex must be the hex
// SHA-256 of the prompt — the encoding store.HashSource uses — so the
// daemon's store-dedup records keep their FileHash key format across
// the hash-keyed cache rewrite.
func TestPromptKeyHexMatchesStoreHash(t *testing.T) {
	for _, p := range []string{"", "prompt", strings.Repeat("long prompt ", 1000)} {
		sum := sha256.Sum256([]byte(p))
		want := hex.EncodeToString(sum[:])
		if got := KeyOf(p).Hex(); got != want {
			t.Fatalf("KeyOf(%.20q).Hex() = %s, want %s", p, got, want)
		}
	}
	if KeyOf("a") == KeyOf("b") {
		t.Fatal("distinct prompts produced the same key")
	}
}

// TestKeyOfAllocatesNothing: KeyOf hashes the prompt in place. The
// fleet router's placement and the daemon's dedup each key every
// prompt, so a copy per call would cost a prompt's length in garbage.
func TestKeyOfAllocatesNothing(t *testing.T) {
	prompt := strings.Repeat("long prompt ", 1000)
	var key PromptKey
	if n := testing.AllocsPerRun(100, func() { key = KeyOf(prompt) }); n != 0 {
		t.Errorf("KeyOf allocates %v times per call, want 0", n)
	}
	if key != KeyOf(strings.Clone(prompt)) {
		t.Error("KeyOf depends on the string's storage, not its bytes")
	}
}

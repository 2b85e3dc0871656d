// Package judge implements the LLM-as-a-judge harness: the three
// prompt templates of the paper (Listings 1-4), submission of prompts
// to an LLM endpoint, and extraction of the mandated
// "FINAL JUDGEMENT: ..." phrase from free-text responses.
package judge

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/spec"
)

// LLM is the endpoint contract: prompt text in, response text out.
// internal/model provides the simulated deepseek-coder endpoint; a
// real model client would satisfy the same interface.
type LLM interface {
	Complete(prompt string) string
}

// ContextLLM is the optional cancellation-aware endpoint contract.
// Endpoints with real latency (HTTP clients, remote inference servers)
// should implement it so an in-flight completion can be abandoned when
// the caller's context ends; Evaluate uses it when available and falls
// back to Complete otherwise.
type ContextLLM interface {
	CompleteContext(ctx context.Context, prompt string) (string, error)
}

// BatchLLM is the optional batched endpoint contract: a whole shard of
// prompts submitted in one call. Endpoints with a server-side batch
// API (or ones that amortise per-request overhead, like the simulated
// model amortising its n-gram tables) implement it; CompleteAll uses
// it when available and falls back to per-prompt completion otherwise.
// Implementations must return exactly one response per prompt, in
// prompt order.
type BatchLLM interface {
	CompleteBatch(ctx context.Context, prompts []string) ([]string, error)
}

// CompleteAll submits a set of prompts through the richest contract
// an endpoint offers: one CompleteBatch call when it implements
// BatchLLM (validating one response per prompt), otherwise per-prompt
// completion — cancellable via ContextLLM when available, with the
// context checked between prompts either way. Responses come back in
// prompt order, identical to asking each prompt alone. Every shard in
// the module resolves through this helper: Judge.EvaluateBatch, each
// ensemble member's vote, the Cached wrapper's misses and the judging
// daemon's endpoint calls.
func CompleteAll(ctx context.Context, llm LLM, prompts []string) ([]string, error) {
	if bl, ok := llm.(BatchLLM); ok {
		resps, err := bl.CompleteBatch(ctx, prompts)
		if err == nil && len(resps) != len(prompts) {
			return nil, fmt.Errorf("judge: batch endpoint returned %d responses for %d prompts", len(resps), len(prompts))
		}
		return resps, err
	}
	resps := make([]string, len(prompts))
	cl, hasCtx := llm.(ContextLLM)
	for i, p := range prompts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hasCtx {
			resp, err := cl.CompleteContext(ctx, p)
			if err != nil {
				return nil, err
			}
			resps[i] = resp
			continue
		}
		resps[i] = llm.Complete(p)
	}
	return resps, nil
}

// Style selects the prompt template.
type Style int

const (
	// Direct is the Part-One prompt (Listing 3): judge the code as
	// presented, answer correct/incorrect.
	Direct Style = iota
	// AgentDirect is the agent-based direct prompt (Listing 2): the
	// criteria plus toolchain outputs, answer valid/invalid. LLMJ 1.
	AgentDirect
	// AgentIndirect is the describe-then-judge prompt (Listing 4).
	// LLMJ 2.
	AgentIndirect
)

func (s Style) String() string {
	switch s {
	case Direct:
		return "direct"
	case AgentDirect:
		return "agent-direct"
	case AgentIndirect:
		return "agent-indirect"
	default:
		return "?"
	}
}

// Verdict is the parsed judgement.
type Verdict int

const (
	// Unparsable: the response did not contain the mandated phrase.
	Unparsable Verdict = iota
	// Valid / Invalid mirror the judgement phrases.
	Valid
	Invalid
)

func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "unparsable"
	}
}

// ToolInfo carries the toolchain outputs injected into agent prompts.
type ToolInfo struct {
	CompileRC     int
	CompileStderr string
	CompileStdout string
	// Ran reports whether the execution stage happened (compilation
	// succeeded).
	Ran       bool
	RunRC     int
	RunStderr string
	RunStdout string
}

// Judge binds an LLM endpoint to a prompt style and dialect.
type Judge struct {
	LLM     LLM
	Style   Style
	Dialect spec.Dialect
}

// Evaluation is the record of judging one file.
type Evaluation struct {
	Prompt   string
	Response string
	Verdict  Verdict
}

// Evaluate builds the prompt for code (with tool info for agent
// styles), queries the LLM, and parses the verdict. The context is
// checked before the endpoint call and passed through to endpoints
// implementing ContextLLM; on cancellation the zero Evaluation and the
// context's error are returned.
func (j *Judge) Evaluate(ctx context.Context, code string, info *ToolInfo) (Evaluation, error) {
	prompt := j.BuildPrompt(code, info)
	if err := ctx.Err(); err != nil {
		return Evaluation{}, err
	}
	var resp string
	if cl, ok := j.LLM.(ContextLLM); ok {
		r, err := cl.CompleteContext(ctx, prompt)
		if err != nil {
			return Evaluation{}, err
		}
		resp = r
	} else {
		resp = j.LLM.Complete(prompt)
	}
	return Evaluation{
		Prompt:   prompt,
		Response: resp,
		Verdict:  ParseVerdict(resp),
	}, nil
}

// EvaluateBatch judges a whole shard of files in one pass. infos
// supplies the per-file tool information for agent styles; nil means
// no tool information for any file. The shard's prompts resolve
// through CompleteAll: one CompleteBatch call when the endpoint
// implements BatchLLM, per-prompt completion otherwise. Either way the
// returned evaluations are in input order and identical to judging
// each file alone — batching changes scheduling, never verdicts.
func (j *Judge) EvaluateBatch(ctx context.Context, codes []string, infos []*ToolInfo) ([]Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prompts := make([]string, len(codes))
	for i, code := range codes {
		var info *ToolInfo
		if infos != nil {
			info = infos[i]
		}
		prompts[i] = j.BuildPrompt(code, info)
	}
	resps, err := CompleteAll(ctx, j.LLM, prompts)
	if err != nil {
		return nil, err
	}
	evs := make([]Evaluation, len(codes))
	for i, resp := range resps {
		evs[i] = Evaluation{Prompt: prompts[i], Response: resp, Verdict: ParseVerdict(resp)}
	}
	return evs, nil
}

// criteria renders the Listing-1 evaluation criteria for a dialect.
func criteria(d spec.Dialect) string {
	name := d.String()
	return fmt.Sprintf(`Syntax: Ensure all %[1]s directives and pragmas are syntactically correct.
Directive Appropriateness: Check if the right directives are used for the intended parallel computations.
Clause Correctness: Verify that all clauses within the directives are correctly used according to %[1]s specifications.
Memory Management: Assess the accuracy of data movement between CPU and GPU.
Compliance: Ensure the code adheres to the latest %[1]s specifications and best practices.
Logic: Verify that the logic of the test (e.g. performing the same computation in serial and parallel and comparing) is correct.
`, name)
}

// promptParts holds the static segments of every prompt template for
// one dialect, rendered once. Prompt text only varies with the dialect
// name, the tool outcomes, and the code under judgement; everything
// else — the criteria, the judgement-phrase instructions, the section
// framing — is computed here exactly as the templates spell it and
// reused byte-for-byte by every BuildPrompt call
// (TestBuildPromptParity pins the equivalence).
type promptParts struct {
	directHead   string // Direct: everything before the code
	agentHead    string // AgentDirect: everything before the tool block
	indirectHead string // AgentIndirect: everything before the tool block
	indirectMid  string // AgentIndirect: between the tool block and the code
	toolHead     string // tool block: the compiler-outputs framing line
}

// Static (dialect-independent) prompt fragments.
const (
	directInstr = `Based on these criteria, evaluate the code in a brief summary, then respond with precisely "FINAL JUDGEMENT: correct" (or incorrect).
You MUST include the exact phrase "FINAL JUDGEMENT: correct" in your evaluation if you believe the code is correct. Otherwise, you must include the phrase "FINAL JUDGEMENT: incorrect" in your evaluation.
`
	agentInstr = `Based on these criteria, evaluate the code and determine if it is a valid or invalid test. Think step by step.
You MUST include the exact phrase, "FINAL JUDGEMENT: valid" in your response if you deem the test to be valid.
If you deem the test to be invalid, include the exact phrase "FINAL JUDGEMENT: invalid" in your response instead.
Here is some information about the code to help you.
`
	indirectNoToolchain = "Here is some information about the code to help you; you do not have to compile or run the code yourself.\n"
	hereIsTheCode       = "Here is the code:\n"
	hereIsTheCodeIndir  = "Here is the code for you to analyze:\n"
)

var partsCache sync.Map // spec.Dialect -> *promptParts

// partsFor renders (once per dialect, then cached) the static prompt
// segments.
func partsFor(d spec.Dialect) *promptParts {
	if p, ok := partsCache.Load(d); ok {
		return p.(*promptParts)
	}
	crit := criteria(d)
	p := &promptParts{
		directHead: fmt.Sprintf("Review the following %s code and evaluate it based on the following criteria:\n\n", d) +
			crit + directInstr + hereIsTheCode,
		agentHead: crit + agentInstr,
		indirectHead: fmt.Sprintf("Describe what the below %s program will do when run. Think step by step.\n", d) +
			indirectNoToolchain,
		indirectMid: fmt.Sprintf(`Using this information, describe in full detail how the below code works, what the below code will do when run, and suggest why the below code might have been written this way.
Then, based on that description, determine whether the described program would be a valid or invalid compiler test for %[1]s compilers.
You MUST include the exact phrase "FINAL JUDGEMENT: valid" in your final response if you believe that your description of the below %[1]s code describes a valid compiler test; otherwise, your final response MUST include the exact phrase "FINAL JUDGEMENT: invalid".
`, d),
		toolHead: fmt.Sprintf("When compiled with a compliant %s compiler, the below code causes the following outputs:\n", d),
	}
	actual, _ := partsCache.LoadOrStore(d, p)
	return actual.(*promptParts)
}

// promptBufPool recycles assembly buffers between BuildPrompt calls;
// promptSizeHint remembers the largest prompt assembled so far (capped
// at maxPooledPromptBuf), so a pooled buffer is pre-grown to the
// suite's working size and a steady-state BuildPrompt performs exactly
// one allocation — the returned string. The cap bounds retention: one
// pathological multi-megabyte prompt must not permanently inflate
// every worker's pooled buffer, so outlier-sized buffers are dropped
// instead of pooled and the hint never exceeds the cap.
const maxPooledPromptBuf = 256 * 1024

var (
	promptBufPool  = sync.Pool{New: func() any { return new([]byte) }}
	promptSizeHint atomic.Int64
)

func getPromptBuf() *[]byte {
	buf := promptBufPool.Get().(*[]byte)
	if hint := int(promptSizeHint.Load()); cap(*buf) < hint {
		*buf = make([]byte, 0, hint)
	}
	return buf
}

func putPromptBuf(buf *[]byte, b []byte) {
	if cap(b) > maxPooledPromptBuf {
		return // outlier: let it be collected rather than retained
	}
	for {
		old := promptSizeHint.Load()
		if int64(len(b)) <= old || promptSizeHint.CompareAndSwap(old, int64(len(b))) {
			break
		}
	}
	*buf = b[:0]
	promptBufPool.Put(buf)
}

// appendToolBlock appends the toolchain-information section of agent
// prompts.
func appendToolBlock(b []byte, p *promptParts, info *ToolInfo) []byte {
	b = append(b, p.toolHead...)
	b = append(b, "Compiler return code: "...)
	b = strconv.AppendInt(b, int64(info.CompileRC), 10)
	b = append(b, "\nCompiler STDERR: "...)
	b = append(b, info.CompileStderr...)
	b = append(b, "\nCompiler STDOUT: "...)
	b = append(b, info.CompileStdout...)
	b = append(b, '\n')
	switch {
	case info.Ran:
		b = append(b, "When the compiled code is run, it gives the following results:\nReturn code: "...)
		b = strconv.AppendInt(b, int64(info.RunRC), 10)
		b = append(b, "\nSTDERR: "...)
		b = append(b, info.RunStderr...)
		b = append(b, "\nSTDOUT: "...)
		b = append(b, info.RunStdout...)
		b = append(b, '\n')
	case info.CompileRC != 0:
		b = append(b, "The code could not be executed because compilation failed.\n"...)
	default:
		b = append(b, "The compiled program was not executed.\n"...)
	}
	return b
}

// BuildPrompt renders the full prompt for a file. Assembly is
// allocation-free apart from the returned string: the static template
// segments are precomputed per dialect and the working buffer is
// pooled, pre-sized to the largest prompt seen.
func (j *Judge) BuildPrompt(code string, info *ToolInfo) string {
	p := partsFor(j.Dialect)
	buf := getPromptBuf()
	b := *buf
	switch j.Style {
	case Direct:
		b = append(b, p.directHead...)
		b = append(b, code...)
	case AgentDirect:
		b = append(b, p.agentHead...)
		if info != nil {
			b = appendToolBlock(b, p, info)
		}
		b = append(b, hereIsTheCode...)
		b = append(b, code...)
	case AgentIndirect:
		b = append(b, p.indirectHead...)
		if info != nil {
			b = appendToolBlock(b, p, info)
		}
		b = append(b, p.indirectMid...)
		b = append(b, hereIsTheCodeIndir...)
		b = append(b, code...)
	}
	s := string(b)
	putPromptBuf(buf, b)
	return s
}

// PromptKey is the 32-byte content hash judging caches key by: the
// SHA-256 of the full prompt text. Keying the memo, the singleflight
// table, and the service dedup maps by PromptKey instead of the prompt
// string keeps map keys at a fixed 32 bytes — the multi-kilobyte
// prompt text is not retained per entry — while remaining
// collision-free for any realistic workload.
type PromptKey [sha256.Size]byte

// KeyOf hashes a prompt to its cache key. It hashes the string's own
// bytes: sha256.Sum256 only reads its argument, so the prompt is not
// copied to a []byte first.
func KeyOf(prompt string) PromptKey {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(prompt), len(prompt)))
}

// Hex returns the key in lowercase hex — byte-identical to
// store.HashSource of the same prompt, which is what lets the judging
// daemon's store-mounted dedup records keep their pre-hash-key
// FileHash encoding.
func (k PromptKey) Hex() string {
	return hex.EncodeToString(k[:])
}

// ParseVerdict extracts the FINAL JUDGEMENT phrase from a response.
// Both wording schemes (valid/invalid, correct/incorrect) are
// accepted; "invalid" and "incorrect" are checked first because
// "valid" is a substring of "invalid".
func ParseVerdict(resp string) Verdict {
	idx := strings.LastIndex(resp, "FINAL JUDGEMENT:")
	if idx < 0 {
		return Unparsable
	}
	tail := resp[idx+len("FINAL JUDGEMENT:"):]
	// Only look at the text right after the phrase.
	if len(tail) > 40 {
		tail = tail[:40]
	}
	tail = strings.ToLower(tail)
	switch {
	case strings.Contains(tail, "invalid") || strings.Contains(tail, "incorrect"):
		return Invalid
	case strings.Contains(tail, "valid") || strings.Contains(tail, "correct"):
		return Valid
	default:
		return Unparsable
	}
}

package judge

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/spec"
)

// scriptedLLM returns canned responses and records prompts.
type scriptedLLM struct {
	response string
	prompts  []string
}

func (s *scriptedLLM) Complete(prompt string) string {
	s.prompts = append(s.prompts, prompt)
	return s.response
}

const sampleCode = "#pragma acc parallel loop\nfor (int i = 0; i < 4; i++) { }\n"

func TestDirectPromptShape(t *testing.T) {
	j := &Judge{LLM: &scriptedLLM{response: "FINAL JUDGEMENT: correct"}, Style: Direct, Dialect: spec.OpenACC}
	ev, err := j.Evaluate(context.Background(), sampleCode, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.Prompt
	for _, want := range []string{
		"Review the following OpenACC code",
		"Syntax: Ensure all OpenACC directives and pragmas are syntactically correct.",
		"Directive Appropriateness:",
		"Clause Correctness:",
		"Memory Management:",
		"Compliance:",
		"Logic: Verify that the logic of the test",
		`"FINAL JUDGEMENT: correct"`,
		"Here is the code:",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("direct prompt missing %q", want)
		}
	}
	if strings.Contains(p, "Compiler return code") {
		t.Error("direct prompt leaks tool info")
	}
	if !strings.HasSuffix(p, sampleCode) {
		t.Error("code not at end of prompt")
	}
	if ev.Verdict != Valid {
		t.Errorf("verdict = %v", ev.Verdict)
	}
}

func TestAgentDirectPromptShape(t *testing.T) {
	info := &ToolInfo{
		CompileRC:     1,
		CompileStderr: "nvc t.c:3: error: boom",
		Ran:           false,
	}
	j := &Judge{LLM: &scriptedLLM{response: "FINAL JUDGEMENT: invalid"}, Style: AgentDirect, Dialect: spec.OpenACC}
	ev, err := j.Evaluate(context.Background(), sampleCode, info)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.Prompt
	for _, want := range []string{
		"Think step by step.",
		`"FINAL JUDGEMENT: valid"`,
		"Here is some information about the code to help you.",
		"Compiler return code: 1",
		"Compiler STDERR: nvc t.c:3: error: boom",
		"could not be executed because compilation failed",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("agent prompt missing %q", want)
		}
	}
	if ev.Verdict != Invalid {
		t.Errorf("verdict = %v", ev.Verdict)
	}
}

func TestAgentDirectPromptWithRun(t *testing.T) {
	info := &ToolInfo{Ran: true, RunRC: 1, RunStderr: "Segmentation fault", RunStdout: ""}
	j := &Judge{LLM: &scriptedLLM{response: "FINAL JUDGEMENT: invalid"}, Style: AgentDirect, Dialect: spec.OpenMP}
	p := j.BuildPrompt(sampleCode, info)
	for _, want := range []string{
		"When the compiled code is run",
		"Return code: 1",
		"STDERR: Segmentation fault",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestAgentIndirectPromptShape(t *testing.T) {
	info := &ToolInfo{Ran: true}
	j := &Judge{LLM: &scriptedLLM{response: "FINAL JUDGEMENT: valid"}, Style: AgentIndirect, Dialect: spec.OpenMP}
	p := j.BuildPrompt(sampleCode, info)
	for _, want := range []string{
		"Describe what the below OpenMP program will do when run.",
		"you do not have to compile or run the code yourself",
		"suggest why the below code might have been written this way",
		"valid or invalid compiler test for OpenMP compilers",
		"Here is the code for you to analyze:",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("indirect prompt missing %q", want)
		}
	}
}

func TestParseVerdict(t *testing.T) {
	cases := []struct {
		resp string
		want Verdict
	}{
		{"blah blah FINAL JUDGEMENT: valid", Valid},
		{"blah blah FINAL JUDGEMENT: invalid", Invalid},
		{"FINAL JUDGEMENT: correct\n", Valid},
		{"FINAL JUDGEMENT: incorrect\n", Invalid},
		{"The test is valid.", Unparsable},
		{"", Unparsable},
		{"FINAL JUDGEMENT: maybe", Unparsable},
		// The model may restate the phrase; the LAST occurrence rules.
		{"I could say FINAL JUDGEMENT: valid but on reflection\nFINAL JUDGEMENT: invalid", Invalid},
		// Case of the verdict word is forgiving, phrase is not.
		{"FINAL JUDGEMENT: Valid", Valid},
		{"final judgement: valid", Unparsable},
	}
	for _, c := range cases {
		if got := ParseVerdict(c.resp); got != c.want {
			t.Errorf("ParseVerdict(%q) = %v, want %v", c.resp, got, c.want)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	if Valid.String() != "valid" || Invalid.String() != "invalid" || Unparsable.String() != "unparsable" {
		t.Fatal("verdict strings wrong")
	}
	if Direct.String() != "direct" || AgentDirect.String() != "agent-direct" || AgentIndirect.String() != "agent-indirect" {
		t.Fatal("style strings wrong")
	}
}

func TestEvaluateCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	llm := &scriptedLLM{response: "FINAL JUDGEMENT: valid"}
	j := &Judge{LLM: llm, Style: Direct, Dialect: spec.OpenACC}
	_, err := j.Evaluate(ctx, sampleCode, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(llm.prompts) != 0 {
		t.Fatal("endpoint called despite cancelled context")
	}
}

// ctxLLM implements ContextLLM and records which path was used.
type ctxLLM struct {
	ctxCalls int
}

func (c *ctxLLM) Complete(string) string { return "FINAL JUDGEMENT: valid" }

func (c *ctxLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	c.ctxCalls++
	return "FINAL JUDGEMENT: valid", nil
}

func TestEvaluatePrefersContextPath(t *testing.T) {
	llm := &ctxLLM{}
	j := &Judge{LLM: llm, Style: Direct, Dialect: spec.OpenACC}
	ev, err := j.Evaluate(context.Background(), sampleCode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if llm.ctxCalls != 1 {
		t.Fatalf("ctx path used %d times, want 1", llm.ctxCalls)
	}
	if ev.Verdict != Valid {
		t.Fatalf("verdict = %v", ev.Verdict)
	}
}

func TestCachedPreservesContextPath(t *testing.T) {
	inner := &ctxLLM{}
	llm := Cached(inner)
	cl, ok := llm.(ContextLLM)
	if !ok {
		t.Fatal("cached wrapper lost ContextLLM")
	}
	if _, err := cl.CompleteContext(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if inner.ctxCalls != 1 {
		t.Fatalf("inner ctx path called %d times, want 1", inner.ctxCalls)
	}
	// Second identical prompt is served from the memo.
	if _, err := cl.CompleteContext(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if inner.ctxCalls != 1 {
		t.Fatalf("cache missed: inner called %d times", inner.ctxCalls)
	}
	// Cancellation still propagates through the wrapper on a miss.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.CompleteContext(ctx, "uncached"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCachedDeduplicatesPrompts(t *testing.T) {
	inner := &scriptedLLM{response: "FINAL JUDGEMENT: valid"}
	llm := Cached(inner)
	for i := 0; i < 5; i++ {
		llm.Complete("same prompt")
	}
	llm.Complete("different prompt")
	if len(inner.prompts) != 2 {
		t.Fatalf("inner endpoint saw %d prompts, want 2", len(inner.prompts))
	}
	if llm.Complete("same prompt") != "FINAL JUDGEMENT: valid" {
		t.Fatal("cached response corrupted")
	}
}

// generatingLLM exercises the author-capability passthrough.
type generatingLLM struct{ scriptedLLM }

func (g *generatingLLM) GenerateTest(prompt string) (string, string) {
	return "int main() { return 0; }", "planted-defect"
}

func TestCachedPreservesAuthorCapability(t *testing.T) {
	llm := Cached(&generatingLLM{scriptedLLM{response: "FINAL JUDGEMENT: valid"}})
	g, ok := llm.(interface {
		GenerateTest(string) (string, string)
	})
	if !ok {
		t.Fatal("cached author lost GenerateTest")
	}
	code, defect := g.GenerateTest("generate something")
	if code == "" || defect != "planted-defect" {
		t.Fatalf("GenerateTest passthrough broken: %q %q", code, defect)
	}
}

func TestOMPPromptsUseOMPWording(t *testing.T) {
	j := &Judge{LLM: &scriptedLLM{response: "FINAL JUDGEMENT: valid"}, Style: Direct, Dialect: spec.OpenMP}
	p := j.BuildPrompt(sampleCode, nil)
	if !strings.Contains(p, "OpenMP directives") {
		t.Error("OMP prompt lacks OpenMP wording")
	}
	if strings.Contains(p, "OpenACC") {
		t.Error("OMP prompt mentions OpenACC")
	}
}

// truncatingBatchLLM is a batch endpoint that drops the last response
// of every shard.
type truncatingBatchLLM struct{ batchCountLLM }

func (t *truncatingBatchLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	out, err := t.batchCountLLM.CompleteBatch(ctx, prompts)
	return out[:len(out)-1], err
}

// TestEvaluateBatch: a shard judged through EvaluateBatch matches
// judging each file alone with Evaluate, whichever contract the
// endpoint offers; a short batch response and a cancelled context are
// errors, the latter before any prompt reaches the endpoint.
func TestEvaluateBatch(t *testing.T) {
	codes := []string{sampleCode, "int main() { return 1; }\n", sampleCode + "// tail\n"}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	batch, short, idle := &batchCountLLM{}, &truncatingBatchLLM{}, &batchCountLLM{}
	single, withCtx := &scriptedLLM{response: "FINAL JUDGEMENT: valid"}, &ctxLLM{}
	cases := []struct {
		name    string
		llm     LLM
		ctx     context.Context
		wantErr string
		sent    func() int // prompts the endpoint has seen
		want    int
	}{
		{"batch endpoint", batch, context.Background(), "", func() int { return batch.batched }, len(codes)},
		{"single-prompt endpoint", single, context.Background(), "", func() int { return len(single.prompts) }, len(codes)},
		{"context endpoint", withCtx, context.Background(), "", func() int { return withCtx.ctxCalls }, len(codes)},
		{"short batch response", short, context.Background(), "returned 2 responses for 3 prompts", func() int { return short.batched }, len(codes)},
		{"cancelled context", idle, cancelled, context.Canceled.Error(), func() int { return idle.batched }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &Judge{LLM: tc.llm, Style: AgentDirect, Dialect: spec.OpenACC}
			infos := []*ToolInfo{{CompileRC: 1, CompileStderr: "error"}, nil, {Ran: true, RunStdout: "PASS"}}
			evs, err := j.EvaluateBatch(tc.ctx, codes, infos)
			if got := tc.sent(); got != tc.want {
				t.Errorf("endpoint saw %d prompts, want %d", got, tc.want)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != len(codes) {
				t.Fatalf("%d evaluations for %d files", len(evs), len(codes))
			}
			for i, code := range codes {
				alone, err := j.Evaluate(context.Background(), code, infos[i])
				if err != nil {
					t.Fatal(err)
				}
				if evs[i] != alone {
					t.Errorf("file %d: batch evaluation %+v, alone %+v", i, evs[i], alone)
				}
			}
		})
	}
}

package ensemble

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/judge"
)

// fixedLLM answers every prompt with a canned verdict phrase.
type fixedLLM struct{ word string }

func (f fixedLLM) Complete(prompt string) string {
	return "Reasoning.\nFINAL JUDGEMENT: " + f.word + "\n"
}

// errLLM fails every shard through the batch contract.
type errLLM struct{}

func (errLLM) Complete(prompt string) string { return "" }
func (errLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	return nil, errors.New("member down")
}

// stallLLM answers answered prompts, then blocks until the context
// ends — a member that hangs mid-shard.
type stallLLM struct {
	answered int
	calls    atomic.Int64
}

func (s *stallLLM) Complete(prompt string) string { return "FINAL JUDGEMENT: valid\n" }
func (s *stallLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	if int(s.calls.Add(1)) <= s.answered {
		return "FINAL JUDGEMENT: valid\n", nil
	}
	<-ctx.Done()
	return "", ctx.Err()
}

func mustPanel(t *testing.T, cfg Config) *Panel {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func members(words ...string) []Member {
	ms := make([]Member, len(words))
	for i, w := range words {
		ms[i] = Member{Name: fmt.Sprintf("m%d", i), LLM: fixedLLM{word: w}}
	}
	return ms
}

func verdictOf(t *testing.T, p *Panel, prompt string) (judge.Verdict, string) {
	t.Helper()
	resp, err := p.CompleteContext(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	return judge.ParseVerdict(resp), resp
}

func TestMajorityVoting(t *testing.T) {
	cases := []struct {
		words []string
		want  judge.Verdict
	}{
		{[]string{"valid", "valid", "invalid"}, judge.Valid},
		{[]string{"invalid", "invalid", "valid"}, judge.Invalid},
		{[]string{"valid", "valid", "valid"}, judge.Valid},
		// An unparsable member abstains; the remaining majority holds.
		{[]string{"maybe?", "invalid", "invalid"}, judge.Invalid},
		// Everyone abstains: the conservative floor is invalid.
		{[]string{"maybe?", "maybe?", "maybe?"}, judge.Invalid},
	}
	for _, tc := range cases {
		p := mustPanel(t, Config{Members: members(tc.words...)})
		got, resp := verdictOf(t, p, "judge this")
		if got != tc.want {
			t.Errorf("majority over %v = %v, want %v\n%s", tc.words, got, tc.want, resp)
		}
	}
}

func TestMajorityTieGoesToChair(t *testing.T) {
	// Two members split: the chair (member 0) decides, deterministically.
	p := mustPanel(t, Config{Members: members("valid", "invalid")})
	if got, _ := verdictOf(t, p, "x"); got != judge.Valid {
		t.Errorf("tie with valid chair = %v, want valid", got)
	}
	p = mustPanel(t, Config{Members: members("invalid", "valid")})
	if got, _ := verdictOf(t, p, "x"); got != judge.Invalid {
		t.Errorf("tie with invalid chair = %v, want invalid", got)
	}
	// An unparsable chair passes the gavel to the next parsable vote.
	p = mustPanel(t, Config{Members: members("maybe?", "valid", "invalid")})
	if got, _ := verdictOf(t, p, "x"); got != judge.Valid {
		t.Errorf("tie with unparsable chair = %v, want valid (next member)", got)
	}
}

func TestUnanimousVoting(t *testing.T) {
	cases := []struct {
		words []string
		want  judge.Verdict
	}{
		{[]string{"valid", "valid", "valid"}, judge.Valid},
		{[]string{"invalid", "invalid", "invalid"}, judge.Invalid},
		// One dissenting judge fails the file — even against a valid
		// chair and majority, which is what separates this strategy
		// from Majority (and from the chair deciding alone).
		{[]string{"valid", "valid", "invalid"}, judge.Invalid},
		{[]string{"invalid", "valid", "valid"}, judge.Invalid},
		// An unparsable survivor breaks unanimity too.
		{[]string{"valid", "maybe?", "valid"}, judge.Invalid},
		{[]string{"maybe?", "maybe?", "maybe?"}, judge.Invalid},
	}
	for _, tc := range cases {
		p := mustPanel(t, Config{Members: members(tc.words...), Strategy: Unanimous})
		if got, _ := verdictOf(t, p, "x"); got != tc.want {
			t.Errorf("unanimous over %v = %v, want %v", tc.words, got, tc.want)
		}
	}
	// Dropped members abstain: the surviving unanimity stands.
	ms := members("valid", "valid")
	ms = append(ms, Member{Name: "down", LLM: errLLM{}})
	p := mustPanel(t, Config{Members: ms, Strategy: Unanimous, Quorum: 2})
	if got, _ := verdictOf(t, p, "x"); got != judge.Valid {
		t.Errorf("degraded unanimous = %v, want valid from surviving unanimity", got)
	}
}

func TestWeightedVoting(t *testing.T) {
	// One heavyweight outvotes two lightweights.
	ms := members("invalid", "valid", "valid")
	ms[0].Weight = 5
	ms[1].Weight = 1
	ms[2].Weight = 1
	p := mustPanel(t, Config{Members: ms, Strategy: Weighted})
	if got, _ := verdictOf(t, p, "x"); got != judge.Invalid {
		t.Errorf("weighted 5-vs-2 = %v, want invalid", got)
	}
	// Zero/absent weights count as 1: plain majority.
	p = mustPanel(t, Config{Members: members("invalid", "valid", "valid"), Strategy: Weighted})
	if got, _ := verdictOf(t, p, "x"); got != judge.Valid {
		t.Errorf("weighted with default weights = %v, want valid", got)
	}
}

// TestTiebreakDeterminism: two identically-configured panels asked
// the same prompts produce byte-identical transcripts, ties included.
func TestTiebreakDeterminism(t *testing.T) {
	prompts := []string{"a", "b", "c", "d"}
	build := func() *Panel {
		return mustPanel(t, Config{Members: members("valid", "invalid", "maybe?")})
	}
	r1, err := build().CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := build().CompleteBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prompts {
		if r1[i] != r2[i] {
			t.Errorf("prompt %d transcripts diverged:\n%q\n%q", i, r1[i], r2[i])
		}
	}
}

func TestDegradedPanelQuorumMet(t *testing.T) {
	ms := members("valid", "valid")
	ms = append(ms, Member{Name: "down", LLM: errLLM{}})
	p := mustPanel(t, Config{Members: ms, Quorum: 2})
	resps, err := p.CompleteBatch(context.Background(), []string{"x"})
	if err != nil {
		t.Fatalf("degraded panel above quorum failed: %v", err)
	}
	if !strings.Contains(resps[0], "VOTE down: error") {
		t.Errorf("dropped member not recorded as an error vote:\n%s", resps[0])
	}
	if v := judge.ParseVerdict(resps[0]); v != judge.Valid {
		t.Errorf("degraded verdict = %v, want valid from the survivors", v)
	}
}

func TestDegradedPanelQuorumNotMet(t *testing.T) {
	ms := []Member{
		{Name: "up", LLM: fixedLLM{word: "valid"}},
		{Name: "down1", LLM: errLLM{}},
		{Name: "down2", LLM: errLLM{}},
	}
	p := mustPanel(t, Config{Members: ms, Quorum: 2})
	_, err := p.CompleteBatch(context.Background(), []string{"x"})
	if err == nil {
		t.Fatal("panel below quorum returned verdicts")
	}
	if !strings.Contains(err.Error(), "quorum") || !strings.Contains(err.Error(), "member down") {
		t.Errorf("quorum error %q does not explain itself", err)
	}
	// Quorum 0 means every member is required: a single failure fails.
	strict := mustPanel(t, Config{Members: []Member{
		{Name: "up", LLM: fixedLLM{word: "valid"}},
		{Name: "down", LLM: errLLM{}},
	}})
	if _, err := strict.CompleteBatch(context.Background(), []string{"x"}); err == nil {
		t.Fatal("full-quorum panel tolerated a member failure")
	}
}

// TestMemberTimeoutMidShard: a member that answers part of a shard
// then hangs is cut off by MemberTimeout and dropped from the whole
// shard's votes; the panel proceeds on the survivors.
func TestMemberTimeoutMidShard(t *testing.T) {
	slow := &stallLLM{answered: 2}
	ms := members("valid", "invalid")
	ms = append(ms, Member{Name: "slow", LLM: slow})
	p := mustPanel(t, Config{Members: ms, Quorum: 2, MemberTimeout: 20 * time.Millisecond})
	start := time.Now()
	resps, err := p.CompleteBatch(context.Background(), []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatalf("panel did not survive a member timing out mid-shard: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout did not bound the shard: took %v", elapsed)
	}
	for i, resp := range resps {
		if !strings.Contains(resp, "VOTE slow: error") {
			t.Errorf("prompt %d: timed-out member not dropped:\n%s", i, resp)
		}
		// Chair (valid) wins the 1-1 survivor tie, deterministically.
		if v := judge.ParseVerdict(resp); v != judge.Valid {
			t.Errorf("prompt %d: degraded verdict = %v, want valid", i, v)
		}
	}
	// The caller's own cancellation is not a degraded panel.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.CompleteBatch(ctx, []string{"x"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call returned %v, want context.Canceled", err)
	}
}

// hangLLM implements only the plain, uncancellable judge.LLM contract
// and never returns — the worst-case member: no context to honour.
type hangLLM struct{ block chan struct{} }

func (h hangLLM) Complete(prompt string) string { <-h.block; return "" }

// TestHungPlainMemberCannotStallPanel: a member whose only contract
// is the error-free Complete cannot be cancelled, but MemberTimeout
// must still bound the shard — the panel abandons the hung goroutine,
// records the member as an error vote, and proceeds on the survivors.
// Caller cancellation must likewise unblock immediately.
func TestHungPlainMemberCannotStallPanel(t *testing.T) {
	hung := hangLLM{block: make(chan struct{})}
	defer close(hung.block) // release the leaked goroutine at test end
	ms := members("valid", "invalid")
	ms = append(ms, Member{Name: "hung", LLM: hung})
	p := mustPanel(t, Config{Members: ms, Quorum: 2, MemberTimeout: 20 * time.Millisecond})
	start := time.Now()
	resps, err := p.CompleteBatch(context.Background(), []string{"a", "b"})
	if err != nil {
		t.Fatalf("panel did not survive a hung plain-LLM member: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("MemberTimeout did not bound the shard: took %v", elapsed)
	}
	for i, resp := range resps {
		if !strings.Contains(resp, "VOTE hung: error") {
			t.Errorf("prompt %d: hung member not recorded as an error vote:\n%s", i, resp)
		}
	}

	// Without a member timeout, the caller's own deadline must still
	// unblock the call even though the hung goroutine cannot be
	// interrupted.
	p2 := mustPanel(t, Config{Members: []Member{
		{Name: "up", LLM: fixedLLM{word: "valid"}},
		{Name: "hung", LLM: hung},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := p2.CompleteBatch(ctx, []string{"x"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("caller deadline over a hung member returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("caller deadline did not unblock the panel: took %v", elapsed)
	}
}

func TestParseVotesRoundTrip(t *testing.T) {
	p := mustPanel(t, Config{Members: members("valid", "invalid", "maybe?"), Strategy: Unanimous})
	resp, err := p.CompleteContext(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	strategy, votes, ok := ParseVotes(resp)
	if !ok {
		t.Fatalf("own transcript did not parse:\n%s", resp)
	}
	if strategy != "unanimous" {
		t.Errorf("strategy = %q", strategy)
	}
	want := []Vote{
		{Member: "m0", Verdict: judge.Valid},
		{Member: "m1", Verdict: judge.Invalid},
		{Member: "m2", Verdict: judge.Unparsable},
	}
	if len(votes) != len(want) {
		t.Fatalf("parsed %d votes, want %d", len(votes), len(want))
	}
	for i := range want {
		if votes[i] != want[i] {
			t.Errorf("vote %d = %+v, want %+v", i, votes[i], want[i])
		}
	}
	// Store encoding round-trips too, including error votes and
	// member names with colons.
	in := []Vote{{Member: "remote:127.0.0.1:99#0", Verdict: judge.Valid}, {Member: "m1", Err: true}}
	enc := EncodeVotes("majority", in)
	strat, out, err := DecodeVotes(enc)
	if err != nil || strat != "majority" || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("DecodeVotes(%q) = %q %+v %v", enc, strat, out, err)
	}
	// A single-judge response is recognisably not a panel transcript.
	if _, _, ok := ParseVotes("Reasoning.\nFINAL JUDGEMENT: valid\n"); ok {
		t.Error("single-judge response parsed as panel votes")
	}
}

func TestParseSpec(t *testing.T) {
	ms, strat, err := ParseSpec("a+b+c")
	if err != nil || strat != Majority || len(ms) != 3 {
		t.Errorf("ParseSpec(a+b+c) = %v %v %v", ms, strat, err)
	}
	ms, strat, err = ParseSpec("a+remote:127.0.0.1:8080:weighted")
	if err != nil || strat != Weighted || len(ms) != 2 || ms[1] != "remote:127.0.0.1:8080" {
		t.Errorf("ParseSpec with remote member = %v %v %v", ms, strat, err)
	}
	for _, bad := range []string{"", "a++b", "a+ensemble:b+c", ":majority", "a b+c"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty panel accepted")
	}
	if _, err := New(Config{Members: []Member{{Name: "a", LLM: nil}}}); err == nil {
		t.Error("nil member endpoint accepted")
	}
	dup := members("valid", "valid")
	dup[1].Name = dup[0].Name
	if _, err := New(Config{Members: dup}); err == nil {
		t.Error("duplicate member names accepted")
	}
	bad := members("valid")
	for _, name := range []string{"has space", "form\ffeed", "no\u00a0break", "a=b"} {
		bad[0].Name = name
		if _, err := New(Config{Members: bad}); err == nil {
			t.Errorf("member name %q accepted", name)
		}
		if _, _, err := ParseSpec(name + "+b"); err == nil {
			t.Errorf("ParseSpec accepted member name %q", name)
		}
	}
}

func TestWeightsFromVotes(t *testing.T) {
	memberNames := []string{"a", "b"}
	votes := [][]Vote{
		{{Member: "a", Verdict: judge.Valid}, {Member: "b", Verdict: judge.Invalid}},
		{{Member: "a", Verdict: judge.Valid}, {Member: "b", Verdict: judge.Valid}},
	}
	panel := []judge.Verdict{judge.Valid, judge.Valid}
	w := WeightsFromVotes(memberNames, votes, panel)
	if w[0] != 1.0 {
		t.Errorf("always-agreeing member weight = %v, want 1", w[0])
	}
	if w[1] != 0.5 {
		t.Errorf("half-agreeing member weight = %v, want 0.5", w[1])
	}
	// No history: neutral weight, not the floor.
	w = WeightsFromVotes([]string{"c"}, nil, nil)
	if w[0] != 1 {
		t.Errorf("history-less member weight = %v, want 1", w[0])
	}
	// Pure disagreement still gets the floor, never zero.
	w = WeightsFromVotes(memberNames, [][]Vote{
		{{Member: "a", Verdict: judge.Invalid}, {Member: "b", Verdict: judge.Valid}},
	}, []judge.Verdict{judge.Valid})
	if w[0] <= 0 {
		t.Errorf("always-disagreeing member weight = %v, want > 0", w[0])
	}
}

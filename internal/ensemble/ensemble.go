// Package ensemble composes N judging endpoints into one voting
// panel that itself satisfies the endpoint contracts (judge.LLM,
// judge.ContextLLM, judge.BatchLLM). Multi-judge panels and
// inter-judge agreement are the standard lens on how far a single
// LLM judge can be trusted ("From Code to Courtroom", the LLM4VV
// follow-up); this package supplies the panel, and internal/metrics
// scores the agreement.
//
// A Panel fans every shard of prompts out to all members
// concurrently — each member receives the whole shard through the
// richest contract it offers (one CompleteBatch call for batch-capable
// members) — so a panel sweep costs one sharded pass over the suite,
// not N sequential runs. Per prompt, the member responses are parsed
// into verdicts and combined by a pluggable voting strategy; the
// panel's own response text carries the member votes line by line and
// ends with the mandated FINAL JUDGEMENT phrase, so everything
// downstream (verdict parsing, the run store, the judging daemon, the
// HTTP wire) handles a panel exactly like a single judge, and the
// votes survive any transport that preserves response bytes.
//
// Degraded panels: when a member errors or times out
// (Config.MemberTimeout), the panel proceeds without it as long as at
// least Config.Quorum members answered, recording the dropout as an
// "error" vote; below quorum the whole call fails. Quorum 0 means
// every member is required.
package ensemble

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/judge"
	"repro/internal/trace"
)

// Strategy selects how member votes combine into the panel verdict.
// Every strategy is deterministic: equal votes always give the equal
// panel verdict, including ties (broken by the chair, never a coin).
type Strategy int

const (
	// Majority: the verdict with more (weighted) votes wins; ties go
	// to the chair — the first member that answered.
	Majority Strategy = iota
	// Unanimous: every answering member must cast the same parsable
	// verdict for it to stand; any dissent or unparsable vote among
	// the survivors resolves to Invalid — the deterministic tiebreak,
	// and the conservative gate that distinguishes this strategy from
	// Majority (one sceptical judge can fail a file).
	Unanimous
	// Weighted is Majority with per-member weights — calibration
	// weights computed from each member's historical agreement with
	// the panel (see WeightsFromVotes and the run store wiring in the
	// root package).
	Weighted
)

func (s Strategy) String() string {
	switch s {
	case Majority:
		return "majority"
	case Unanimous:
		return "unanimous"
	case Weighted:
		return "weighted"
	default:
		return "?"
	}
}

// ParseStrategy resolves a strategy name (the optional suffix of an
// "ensemble:a+b+c:strategy" backend spec).
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "majority":
		return Majority, nil
	case "unanimous":
		return Unanimous, nil
	case "weighted":
		return Weighted, nil
	default:
		return 0, fmt.Errorf("ensemble: unknown voting strategy %q (majority, unanimous, weighted)", name)
	}
}

// knownStrategy reports whether name parses, without allocating the
// error — used by ParseSpec to decide if a trailing :segment is a
// strategy or part of a member name.
func knownStrategy(name string) bool {
	_, err := ParseStrategy(name)
	return err == nil
}

// Member is one judging endpoint on the panel.
type Member struct {
	// Name labels the member's votes; it must be non-empty, unique on
	// the panel, and free of '=' and of whitespace of any kind (the
	// vote encoding's separators). llm4vv.NewPanel names members "backend#index".
	Name string
	// LLM answers the member's prompts. judge.BatchLLM and
	// judge.ContextLLM are honoured when implemented.
	LLM judge.LLM
	// Weight scales this member's vote under the Weighted strategy;
	// values <= 0 count as 1. Other strategies ignore it.
	Weight float64
}

// Config configures a Panel.
type Config struct {
	Members  []Member
	Strategy Strategy
	// Quorum is the minimum number of members that must answer a
	// shard for the panel to return verdicts at all; 0 requires every
	// member (any member failure fails the call).
	Quorum int
	// MemberTimeout bounds each member's handling of one shard; a
	// member that exceeds it is dropped from that shard's votes
	// (subject to Quorum). 0 means no per-member deadline beyond the
	// caller's context.
	MemberTimeout time.Duration
}

// Panel is a voting ensemble of judging endpoints. Construct with
// New; the zero value is not usable. A Panel is immutable and safe
// for concurrent use when its members are.
type Panel struct {
	cfg    Config
	quorum int
}

// New validates the configuration and builds a Panel.
func New(cfg Config) (*Panel, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("ensemble: a panel needs at least one member")
	}
	seen := map[string]bool{}
	for i, m := range cfg.Members {
		if m.LLM == nil {
			return nil, fmt.Errorf("ensemble: member %d (%q) has a nil endpoint", i, m.Name)
		}
		if m.Name == "" || badName(m.Name) {
			return nil, fmt.Errorf("ensemble: member %d name %q must be non-empty without whitespace or '='", i, m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("ensemble: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
	}
	quorum := cfg.Quorum
	if quorum <= 0 || quorum > len(cfg.Members) {
		quorum = len(cfg.Members)
	}
	return &Panel{cfg: cfg, quorum: quorum}, nil
}

// Members lists the member names in panel order.
func (p *Panel) Members() []string {
	names := make([]string, len(p.cfg.Members))
	for i, m := range p.cfg.Members {
		names[i] = m.Name
	}
	return names
}

// Strategy reports the panel's voting strategy.
func (p *Panel) Strategy() Strategy { return p.cfg.Strategy }

// Describe returns the member names and the strategy name — the
// transport-friendly description the judging daemon reports from
// /v1/backends (matched there by a local interface, so the daemon
// core stays endpoint-agnostic).
func (p *Panel) Describe() (members []string, strategy string) {
	return p.Members(), p.cfg.Strategy.String()
}

// Reweighted returns a copy of the panel with per-member weights
// (aligned with Members()) — how a Weighted panel picks up
// calibration weights computed from run-store history. The receiver
// is not modified.
func (p *Panel) Reweighted(weights []float64) (*Panel, error) {
	if len(weights) != len(p.cfg.Members) {
		return nil, fmt.Errorf("ensemble: %d weights for %d members", len(weights), len(p.cfg.Members))
	}
	cfg := p.cfg
	cfg.Members = append([]Member(nil), p.cfg.Members...)
	for i := range cfg.Members {
		cfg.Members[i].Weight = weights[i]
	}
	return New(cfg)
}

// Close closes every member endpoint that has a Close method, such as
// a fleet Router and its health loop. The panel owns its members; a
// Reweighted copy shares them, so close only one of the two.
func (p *Panel) Close() {
	for _, m := range p.cfg.Members {
		if c, ok := m.LLM.(interface{ Close() }); ok {
			c.Close()
		}
	}
}

// Complete implements judge.LLM. The error-free contract has nowhere
// to surface a quorum failure, so one maps to an empty response
// (parsed downstream as an unparsable verdict); error-aware callers
// use CompleteContext or CompleteBatch.
func (p *Panel) Complete(prompt string) string {
	resp, err := p.CompleteContext(context.Background(), prompt)
	if err != nil {
		return ""
	}
	return resp
}

// CompleteContext implements judge.ContextLLM.
func (p *Panel) CompleteContext(ctx context.Context, prompt string) (string, error) {
	resps, err := p.CompleteBatch(ctx, []string{prompt})
	if err != nil {
		return "", err
	}
	return resps[0], nil
}

// CompleteBatch implements judge.BatchLLM: the whole shard goes to
// every member concurrently (one CompleteBatch call per batch-capable
// member), then each prompt's member verdicts are combined by the
// voting strategy. Responses come back in prompt order; each is the
// deterministic panel transcript for its prompt, independent of shard
// boundaries and member completion order.
func (p *Panel) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	if len(prompts) == 0 {
		return []string{}, nil
	}
	type memberResult struct {
		member int
		resps  []string
		err    error
	}
	// Results travel over a buffered channel rather than a shared
	// slice so a member that never returns can be abandoned without a
	// race: its eventual send lands in the buffer unread, and its slot
	// below simply stays an error. This matters for members that
	// implement only the plain, uncancellable judge.LLM contract — a
	// hung Complete() cannot be interrupted, so on timeout or caller
	// cancellation its goroutine is abandoned (it leaks until the
	// endpoint returns; that is the price of the error-free contract).
	done := make(chan memberResult, len(p.cfg.Members))
	for i, m := range p.cfg.Members {
		go func(i int, m Member) {
			// Each member's vote on the shard is its own span — under a
			// traced file this is what separates "the panel was slow"
			// into "member X was slow".
			mctx, mspan := trace.Start(ctx, "panel.member")
			if mspan != nil {
				mspan.SetAttr("member", m.Name)
				mspan.SetAttr("prompts", strconv.Itoa(len(prompts)))
			}
			if p.cfg.MemberTimeout > 0 {
				var cancel context.CancelFunc
				mctx, cancel = context.WithTimeout(mctx, p.cfg.MemberTimeout)
				defer cancel()
			}
			resps, err := judge.CompleteAll(mctx, m.LLM, prompts)
			if err != nil {
				mspan.SetAttr("error", err.Error())
			}
			mspan.End()
			done <- memberResult{member: i, resps: resps, err: err}
		}(i, m)
	}
	results := make([]memberResult, len(p.cfg.Members))
	for i := range results {
		results[i] = memberResult{member: i, err: fmt.Errorf("ensemble: member %q did not answer before the panel moved on", p.cfg.Members[i].Name)}
	}
	// With a member timeout configured, grant a grace period past it
	// for context-aware members to deliver their own ctx error; after
	// that, unanswered members count as timed out and the panel moves
	// on — MemberTimeout bounds the shard even for members whose
	// endpoints cannot be cancelled.
	var deadline <-chan time.Time
	if p.cfg.MemberTimeout > 0 {
		t := time.NewTimer(p.cfg.MemberTimeout + 100*time.Millisecond)
		defer t.Stop()
		deadline = t.C
	}
collect:
	for pending := len(p.cfg.Members); pending > 0; pending-- {
		select {
		case r := <-done:
			results[r.member] = r
		case <-deadline:
			break collect
		case <-ctx.Done():
			// The caller's own cancellation is not a degraded panel;
			// surface it as-is so schedulers stop cleanly.
			return nil, ctx.Err()
		}
	}
	// select picks randomly among ready cases, so the deadline can
	// win the race against results already sitting in the buffer;
	// drain them — a member that answered within its window must
	// never be scored as absent (determinism depends on it).
drain:
	for {
		select {
		case r := <-done:
			results[r.member] = r
		default:
			break drain
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	alive := 0
	var firstErr error
	for _, r := range results {
		if r.err == nil {
			alive++
		} else if firstErr == nil {
			firstErr = r.err
		}
	}
	if alive < p.quorum {
		return nil, fmt.Errorf("ensemble: quorum not met: %d of %d members answered (quorum %d): %w",
			alive, len(p.cfg.Members), p.quorum, firstErr)
	}
	out := make([]string, len(prompts))
	for k := range prompts {
		votes := make([]Vote, len(p.cfg.Members))
		for i, m := range p.cfg.Members {
			if results[i].err != nil {
				votes[i] = Vote{Member: m.Name, Err: true}
				continue
			}
			votes[i] = Vote{Member: m.Name, Verdict: judge.ParseVerdict(results[i].resps[k])}
		}
		out[k] = p.render(votes, p.decide(votes))
	}
	return out, nil
}

// decide combines one prompt's member votes into the panel verdict.
// The result is always Valid or Invalid: a panel that cannot reach a
// parsable conclusion (every member unparsable or erred) resolves
// conservatively to Invalid, matching the validation pipeline's
// treatment of unparsable single-judge verdicts.
func (p *Panel) decide(votes []Vote) judge.Verdict {
	switch p.cfg.Strategy {
	case Unanimous:
		// Unanimity is over the surviving members: dropped members
		// abstain (Quorum already bounds how many may), but a single
		// dissenting or unparsable survivor fails the file.
		first := judge.Unparsable
		for _, v := range votes {
			if v.Err {
				continue
			}
			if v.Verdict == judge.Unparsable {
				return judge.Invalid
			}
			if first == judge.Unparsable {
				first = v.Verdict
				continue
			}
			if v.Verdict != first {
				return judge.Invalid
			}
		}
		if first == judge.Unparsable {
			// No survivor cast a parsable vote at all.
			return judge.Invalid
		}
		return first
	default: // Majority and Weighted share the tally; weights differ.
		var valid, invalid float64
		for i, v := range votes {
			if v.Err {
				continue
			}
			w := 1.0
			if p.cfg.Strategy == Weighted {
				if mw := p.cfg.Members[i].Weight; mw > 0 {
					w = mw
				}
			}
			switch v.Verdict {
			case judge.Valid:
				valid += w
			case judge.Invalid:
				invalid += w
			}
		}
		switch {
		case valid > invalid:
			return judge.Valid
		case invalid > valid:
			return judge.Invalid
		default:
			return p.chairVote(votes)
		}
	}
}

// chairVote is the deterministic tiebreak: the verdict of the first
// member that answered with a parsable vote; Invalid when no member
// did. Member order is configuration order, so identically-configured
// panels break every tie identically.
func (p *Panel) chairVote(votes []Vote) judge.Verdict {
	for _, v := range votes {
		if v.Err || v.Verdict == judge.Unparsable {
			continue
		}
		return v.Verdict
	}
	return judge.Invalid
}

// render produces the panel transcript for one prompt: a header
// naming the strategy and quorum, one VOTE line per member in panel
// order, and the exact FINAL JUDGEMENT phrase judge.ParseVerdict
// extracts. The text is a pure function of (votes, verdict), which is
// what makes panel reports byte-identical across transports and
// resumed runs.
func (p *Panel) render(votes []Vote, verdict judge.Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PANEL VERDICT (strategy=%s quorum=%d members=%d)\n",
		p.cfg.Strategy, p.quorum, len(p.cfg.Members))
	for _, v := range votes {
		fmt.Fprintf(&b, "VOTE %s: %s\n", v.Member, v.word())
	}
	fmt.Fprintf(&b, "FINAL JUDGEMENT: %s\n", verdict)
	return b.String()
}

// Vote is one member's parsed verdict on one prompt.
type Vote struct {
	Member  string
	Verdict judge.Verdict
	// Err marks a member that errored or timed out on the shard; its
	// Verdict is meaningless and the vote abstains from every tally.
	Err bool
}

// word is the vote's wire spelling ("valid", "invalid", "unparsable",
// or "error" for a dropped member).
func (v Vote) word() string {
	if v.Err {
		return "error"
	}
	return v.Verdict.String()
}

// voteFromWord inverts word.
func voteFromWord(member, word string) (Vote, bool) {
	switch word {
	case "error":
		return Vote{Member: member, Err: true}, true
	case "valid":
		return Vote{Member: member, Verdict: judge.Valid}, true
	case "invalid":
		return Vote{Member: member, Verdict: judge.Invalid}, true
	case "unparsable":
		return Vote{Member: member, Verdict: judge.Unparsable}, true
	default:
		return Vote{}, false
	}
}

// ParseVotes extracts the strategy and per-member votes from a panel
// transcript, in panel order. ok is false when the response is not a
// panel transcript (no VOTE lines) — how callers detect that a
// backend expected to be an ensemble is a single judge.
func ParseVotes(resp string) (strategy string, votes []Vote, ok bool) {
	for _, line := range strings.Split(resp, "\n") {
		if rest, found := strings.CutPrefix(line, "PANEL VERDICT (strategy="); found {
			if sp := strings.IndexByte(rest, ' '); sp > 0 {
				strategy = rest[:sp]
			}
			continue
		}
		rest, found := strings.CutPrefix(line, "VOTE ")
		if !found {
			continue
		}
		// Member names may contain ':' (remote:host:port#0); the
		// verdict word never does, so split on the last ": ".
		idx := strings.LastIndex(rest, ": ")
		if idx <= 0 {
			continue
		}
		if v, parsed := voteFromWord(rest[:idx], rest[idx+2:]); parsed {
			votes = append(votes, v)
		}
	}
	return strategy, votes, len(votes) > 0
}

// EncodeVotes renders one file's panel outcome for the run store: the
// strategy token followed by member=word pairs in panel order,
// space-separated. The encoding is canonical — equal votes encode to
// equal bytes — so replayed runs never grow the store.
func EncodeVotes(strategy string, votes []Vote) string {
	parts := make([]string, 0, len(votes)+1)
	parts = append(parts, strategy)
	for _, v := range votes {
		parts = append(parts, v.Member+"="+v.word())
	}
	return strings.Join(parts, " ")
}

// DecodeVotes inverts EncodeVotes, restoring the strategy and the
// votes in their stored (panel) order.
func DecodeVotes(s string) (strategy string, votes []Vote, err error) {
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return "", nil, fmt.Errorf("ensemble: stored votes %q too short", s)
	}
	strategy = fields[0]
	for _, f := range fields[1:] {
		idx := strings.LastIndex(f, "=")
		if idx <= 0 {
			return "", nil, fmt.Errorf("ensemble: bad stored vote %q", f)
		}
		v, parsed := voteFromWord(f[:idx], f[idx+1:])
		if !parsed {
			return "", nil, fmt.Errorf("ensemble: bad stored verdict in %q", f)
		}
		votes = append(votes, v)
	}
	return strategy, votes, nil
}

// ParseSpec splits an ensemble backend argument — "a+b+c" with an
// optional ":strategy" suffix — into member backend names and the
// voting strategy (Majority when absent). Member names may themselves
// contain ':' (remote:host:port); the suffix is treated as a strategy
// only when it names one. Nested ensembles are rejected: '+' would be
// ambiguous between the two levels.
func ParseSpec(arg string) (members []string, strategy Strategy, err error) {
	strategy = Majority
	if idx := strings.LastIndex(arg, ":"); idx >= 0 && knownStrategy(arg[idx+1:]) {
		strategy, _ = ParseStrategy(arg[idx+1:])
		arg = arg[:idx]
	}
	if arg == "" {
		return nil, 0, fmt.Errorf("ensemble: empty member list")
	}
	members = strings.Split(arg, "+")
	for _, m := range members {
		if m == "" {
			return nil, 0, fmt.Errorf("ensemble: empty member name in %q", arg)
		}
		if strings.HasPrefix(m, "ensemble:") {
			return nil, 0, fmt.Errorf("ensemble: nested ensemble member %q is not supported", m)
		}
		if badName(m) {
			return nil, 0, fmt.Errorf("ensemble: member name %q must not contain whitespace or '='", m)
		}
	}
	return members, strategy, nil
}

// badName reports whether a member name contains whitespace of any
// kind or '=', the separators of the transcript and the store encoding
// (DecodeVotes splits on every Unicode space).
func badName(name string) bool {
	return strings.ContainsRune(name, '=') || strings.ContainsFunc(name, unicode.IsSpace)
}

// WeightsFromVotes computes calibration weights for the Weighted
// strategy from recorded panel history: each member's agreement rate
// with the stored panel verdict across the given items (its accuracy
// against the panel consensus). A member with no usable history gets
// the neutral weight 1 — a fresh seat votes like anyone else until
// history accrues — while a history of pure disagreement gets a small
// positive floor, so no member is ever silenced entirely. votes[i]
// aligns with panelVerdicts[i]; items whose vote count mismatches
// members are skipped.
func WeightsFromVotes(members []string, votes [][]Vote, panelVerdicts []judge.Verdict) []float64 {
	const floor = 0.05
	agree := make([]int, len(members))
	counted := make([]int, len(members))
	byName := map[string]int{}
	for i, m := range members {
		byName[m] = i
	}
	for item, vs := range votes {
		if item >= len(panelVerdicts) {
			break
		}
		for _, v := range vs {
			i, ok := byName[v.Member]
			if !ok || v.Err {
				continue
			}
			counted[i]++
			if v.Verdict == panelVerdicts[item] {
				agree[i]++
			}
		}
	}
	weights := make([]float64, len(members))
	for i := range weights {
		w := floor
		if counted[i] > 0 {
			if r := float64(agree[i]) / float64(counted[i]); r > floor {
				w = r
			}
		} else {
			w = 1 // no history: neutral weight, not the floor
		}
		weights[i] = w
	}
	return weights
}

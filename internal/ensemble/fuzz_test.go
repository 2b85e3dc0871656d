package ensemble

import (
	"strings"
	"testing"
)

// FuzzVotes checks the panel's two vote codecs. On any input,
// ParseVotes and DecodeVotes do not panic. For any member names New
// accepts (newline-separated in names) and any votes (words[i] picks
// member i's), the panel transcript read back by ParseVotes and the
// store encoding read back by DecodeVotes both return exactly the
// strategy and votes that went in. The checked-in seeds
// (testdata/fuzz/FuzzVotes) hold the names llm4vv.NewPanel gives
// local and remote members, error votes, and names with colons and
// non-ASCII spaces.
func FuzzVotes(f *testing.F) {
	f.Add("m0\nm1\nm2", uint8(0), []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, names string, strategy uint8, words []byte) {
		ParseVotes(names)
		DecodeVotes(names)

		var ms []Member
		for _, n := range strings.Split(names, "\n") {
			ms = append(ms, Member{Name: n, LLM: fixedLLM{word: "valid"}})
		}
		p, err := New(Config{Members: ms, Strategy: Strategy(strategy % 3)})
		if err != nil {
			return
		}
		votes := make([]Vote, len(ms))
		for i, m := range ms {
			w := byte(0)
			if i < len(words) {
				w = words[i]
			}
			votes[i], _ = voteFromWord(m.Name, [...]string{"valid", "invalid", "unparsable", "error"}[w%4])
		}
		want := p.Strategy().String()
		check := func(codec, got string, gotVotes []Vote) {
			if got != want {
				t.Errorf("%s: strategy %q, want %q", codec, got, want)
			}
			if len(gotVotes) != len(votes) {
				t.Fatalf("%s: %d votes, want %d: %+v", codec, len(gotVotes), len(votes), gotVotes)
			}
			for i := range votes {
				if gotVotes[i] != votes[i] {
					t.Errorf("%s: vote %d = %+v, want %+v", codec, i, gotVotes[i], votes[i])
				}
			}
		}
		strat, got, ok := ParseVotes(p.render(votes, p.decide(votes)))
		if !ok {
			t.Fatalf("transcript of %q did not parse", names)
		}
		check("transcript", strat, got)
		strat, got, err = DecodeVotes(EncodeVotes(want, votes))
		if err != nil {
			t.Fatalf("DecodeVotes: %v", err)
		}
		check("store encoding", strat, got)
	})
}

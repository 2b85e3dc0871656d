package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestModelRandomOps drives the store through seeded random sequences
// of Put, Flush, Get, Has, Scan, seal, background merge, Compact and
// reopen at a 4 KiB seal threshold, and checks every answer against a
// plain map of the last record put per key. Records run from about
// a hundred bytes to 1.7 KiB, so seals land every few puts, with lines
// both flushed and still buffered; identical re-puts must append
// nothing.
// Merges run in the background as the segment count reaches 3, so
// their timing varies from run to run; no answer may depend on it.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runModel(t, seed, 500)
		})
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "run.jsonl")
	opts := Options{SealBytes: 4 << 10, MergeThreshold: 3}
	s, err := OpenWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	model := map[Key]Record{}

	exps := []string{"direct-probing", "part2/direct", "serve/completions"}
	backends := []string{"deepseek-sim", "fleet:a,b"}
	randKey := func() Key {
		return Key{
			Experiment: exps[rng.Intn(len(exps))],
			Backend:    backends[rng.Intn(len(backends))],
			Seed:       uint64(rng.Intn(2)),
			FileHash:   fmt.Sprintf("h%02d", rng.Intn(40)),
		}
	}
	randRecord := func(k Key) Record {
		rec := Record{Experiment: k.Experiment, Backend: k.Backend, Seed: k.Seed, FileHash: k.FileHash,
			Name: "f_" + k.FileHash + ".c", JudgeRan: true, Verdict: []string{"valid", "invalid"}[rng.Intn(2)]}
		rec.Valid = rec.Verdict == "valid"
		switch rng.Intn(4) {
		case 0:
			rec.Response = strings.Repeat("<r&>", rng.Intn(400))
		case 1:
			rec.Votes = fmt.Sprintf("majority a=%s b=valid", rec.Verdict)
		}
		return rec
	}
	check := func(step int, what string, ok bool, format string, args ...any) {
		t.Helper()
		if !ok {
			t.Fatalf("seed %d step %d %s: "+format, append([]any{seed, step, what}, args...)...)
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 45: // Put: a new value, or an identical replay
			k := randKey()
			rec, replay := model[k]
			if !replay || rng.Intn(3) > 0 {
				rec, replay = randRecord(k), false
			}
			before := s.Stats()
			check(step, "Put", s.Put(rec) == nil, "failed")
			if replay {
				after := s.Stats()
				check(step, "replay", after.ActiveLines == before.ActiveLines && after.ActiveBytes == before.ActiveBytes,
					"identical re-put appended: %d lines, %d bytes -> %d, %d", before.ActiveLines, before.ActiveBytes, after.ActiveLines, after.ActiveBytes)
			}
			model[k] = rec
		case op < 55:
			check(step, "Flush", s.Flush() == nil, "failed")
		case op < 70:
			k := randKey()
			got, ok := s.Get(k)
			want, in := model[k]
			check(step, "Get", ok == in && got == want, "%v = %v %+v, want %v %+v", k, ok, got, in, want)
		case op < 78:
			k := randKey()
			_, in := model[k]
			check(step, "Has", s.Has(k) == in, "%v, want %v", k, in)
		case op < 86:
			var f Filter
			if rng.Intn(4) > 0 {
				k := randKey()
				f.Experiment = k.Experiment
				if rng.Intn(2) == 0 {
					f.Backend = k.Backend
					if rng.Intn(2) == 0 {
						f.Seed = &k.Seed
					}
				}
			}
			var got []Record
			check(step, "Scan", s.Scan(f, func(rec Record) bool { got = append(got, rec); return true }) == nil, "failed")
			var want []Record
			for k, rec := range model {
				if f.match(k) {
					want = append(want, rec)
				}
			}
			sort.Slice(want, func(i, j int) bool { return lessKey(want[i].Key(), want[j].Key()) })
			check(step, "Scan", len(got) == len(want), "%+v yielded %d records, want %d", f, len(got), len(want))
			for i := range got {
				check(step, "Scan", got[i] == want[i], "record %d = %+v, want %+v", i, got[i], want[i])
			}
		case op < 91: // seal now, and maybe start a background merge
			s.mu.Lock()
			err := s.sealLocked()
			s.maybeMergeLocked()
			s.mu.Unlock()
			check(step, "seal", err == nil, "%v", err)
		case op < 94:
			_, err := s.Compact()
			check(step, "Compact", err == nil, "%v", err)
			st := s.Stats()
			check(step, "Compact", st.ActiveLines == 0 && st.SegmentCount() <= 1, "left %+v", st)
		default:
			check(step, "Close", s.Close() == nil, "failed")
			s, err = OpenWith(path, opts)
			check(step, "reopen", err == nil, "%v", err)
			check(step, "reopen", s.Dropped() == 0, "dropped %d lines", s.Dropped())
		}
		check(step, "Len", s.Len() == len(model), "= %d, want %d", s.Len(), len(model))
	}
	st := s.Stats()
	check(steps, "end", st.ReadErrors == 0 && st.MergeErr == "", "%+v", st)
}

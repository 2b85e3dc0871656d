package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	llm4vv "repro"
	"repro/internal/judge"
)

// TestSelfTimeSubtractsUnionOfChildren: a parent's self time is its
// span minus the union of its children, so overlapping children count
// once and a child reaching past the parent counts only inside it.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{id: 1, layer: "server", host: "r0", start: 0, end: 100},
		{id: 2, parent: 1, layer: "model", host: "r0", start: 10, end: 40},
		{id: 3, parent: 1, layer: "model", host: "r0", start: 30, end: 60},
		{id: 4, parent: 1, layer: "model", host: "r0", start: 90, end: 120},
	}
	self := selfTimes(spans, nil)
	// Covered: [10,60) and [90,100) = 60 of the parent's 100.
	if got := self["server"]; got != 40 {
		t.Errorf("server self = %d, want 40", got)
	}
	if got := self["model"]; got != 30+30+30 {
		t.Errorf("model self = %d, want 90 (leaves keep their whole span)", got)
	}
}

// TestSelfTimeImplicitParentsByContainment: a span whose parent id
// was lost (the daemon's micro-batch flush runs on its own goroutine)
// attaches to every containing span of its parent layer on the same
// host — and to no span on another host.
func TestSelfTimeImplicitParentsByContainment(t *testing.T) {
	spans := []span{
		{id: 1, layer: "server", host: "r0", start: 0, end: 50},
		{id: 2, layer: "server", host: "r0", start: 5, end: 40},
		{id: 3, layer: "server", host: "r1", start: 0, end: 50},
		{id: 4, layer: "model", host: "r0", start: 10, end: 30},
	}
	self := selfTimes(spans, map[string]string{"model": "server"})
	// Both r0 requests waited on the shared batch; r1's did not.
	if got, want := self["server"], int64((50-20)+(35-20)+50); got != want {
		t.Errorf("server self = %d, want %d", got, want)
	}
}

func TestIdleTimeCountsFreeSlots(t *testing.T) {
	roots := []span{{start: 0, end: 10}, {start: 5, end: 20}, {start: 6, end: 8}}
	// [0,5): 1 free; [5,10): none; [10,20): 1 free; [20,30): 2 free.
	if got := idleTime(roots, 2, 0, 30); got != 5+10+20 {
		t.Errorf("idle = %d, want 35", got)
	}
}

// TestQuantileNeedsTenSamplesBeyond: a percentile is reported only
// with at least ten samples beyond it.
func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{1000, 0.99, true},
		{999, 0.99, false},
	} {
		values := make([]float64, c.n)
		for i := range values {
			values[i] = float64(c.n - i)
		}
		v, err := quantile(values, c.p)
		if (err == nil) != c.ok {
			t.Errorf("quantile(n=%d, p=%g) error = %v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && v != math.Ceil(c.p*float64(c.n)) {
			t.Errorf("quantile(n=%d, p=%g) = %g, want nearest rank %g", c.n, c.p, v, math.Ceil(c.p*float64(c.n)))
		}
	}
}

// TestOpenLoopTimesFromDueTime: when the system stalls, requests due
// during the stall are charged the time they waited, not just their
// own service time, and the generator reports how late it sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 5 * time.Millisecond
	arrivals := make([]arrival, 8)
	for i := range arrivals {
		arrivals[i] = arrival{due: time.Duration(i) * time.Millisecond, op: i}
	}
	outs := runOpenLoop(arrivals, 1, func(int) bool {
		time.Sleep(service)
		return true
	})
	for i, o := range outs {
		// With one slot, request i cannot start before i services
		// have run, however early it was due.
		minLate := time.Duration(i)*service - arrivals[i].due
		if o.late < minLate {
			t.Errorf("request %d: late %v, want >= %v", i, o.late, minLate)
		}
		if o.latency < o.late+service {
			t.Errorf("request %d: latency %v does not include its lateness %v plus service %v", i, o.latency, o.late, service)
		}
	}
}

// TestRefusedRequestFailsAndMissesLatencyLimit: a 429 from the router
// is a failed request, and it enters the latency distribution as +Inf,
// so it can only push a percentile past any limit.
func TestRefusedRequestFailsAndMissesLatencyLimit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.05")
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	sys := &serveSys{
		fleet:  &fleetHost{l: &listener{addr: strings.TrimPrefix(ts.URL, "http://")}},
		client: ts.Client(),
	}
	if _, err := sys.complete("prompt"); err == nil {
		t.Fatal("complete accepted a 429")
	}

	// 100 fast answers and 12 refusals: p50 is unaffected, but p90
	// lands on a refusal and so misses every limit.
	arrivals := make([]arrival, 112)
	for i := range arrivals {
		arrivals[i] = arrival{op: i}
	}
	outs := runOpenLoop(arrivals, 2, func(op int) bool {
		if op < 12 {
			_, err := sys.complete("prompt")
			return err == nil
		}
		return true
	})
	failed := 0
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	if failed != 12 {
		t.Errorf("failed = %d, want 12", failed)
	}
	ms := latenciesMS(outs)
	p50, err := quantile(append([]float64(nil), ms...), 0.5)
	if err != nil || math.IsInf(p50, 1) {
		t.Errorf("p50 = %v, %v; want a finite latency", p50, err)
	}
	p90, err := quantile(ms, 0.9)
	if err != nil || !math.IsInf(p90, 1) {
		t.Errorf("p90 = %v, %v; want +Inf (refusals miss the limit)", p90, err)
	}
	if got := okPct(int64(len(outs)), int64(failed)); math.Abs(got-100*100.0/112) > 1e-9 {
		t.Errorf("ok_pct = %g", got)
	}
}

// TestTracedPanelAnswersLikeShippedPanel: the panel a traced fleet
// serves, rebuilt seat by seat behind decorators, answers byte for
// byte like the registry's ensemble backend.
func TestTracedPanelAnswersLikeShippedPanel(t *testing.T) {
	shipped, err := llm4vv.NewBackend(panelBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedPanel(newRecorder(), "replica-0", llm4vv.DefaultModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	prompts, err := servePrompts(7, 24)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(prompts))
	for i, p := range prompts {
		texts[i] = p.text
	}
	want, err := judge.CompleteAll(context.Background(), shipped, texts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := judge.CompleteAll(context.Background(), traced, texts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prompt %d: traced panel answered %q, shipped panel %q", i, got[i], want[i])
		}
	}
}

// TestServeScheduleIsSeeded: the schedule is a function of the seed,
// and the repeat share comes out near serveRepeatShare.
func TestServeScheduleIsSeeded(t *testing.T) {
	a1, p1 := serveSchedule(3, 10)
	a2, p2 := serveSchedule(3, 10)
	a3, _ := serveSchedule(4, 10)
	if len(a1) != len(a2) || len(p1) != len(p2) {
		t.Fatal("same seed gave different schedules")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed gave different schedules")
		}
	}
	if len(a1) == len(a3) && a1[len(a1)/2] == a3[len(a3)/2] {
		t.Error("different seeds gave the same schedule")
	}
	repeats := len(p1) - distinctPrompts(p1)
	if share := float64(repeats) / float64(len(p1)); math.Abs(share-serveRepeatShare) > 0.05 {
		t.Errorf("repeat share %.3f, want about %.2f", share, serveRepeatShare)
	}
	if n := len(p1); n != 10*serveRate {
		t.Errorf("%d requests in 10 s at %d/s", n, serveRate)
	}
	scrapes := 0
	for i, a := range a1 {
		if i > 0 && a.due < a1[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a.op == opScrape {
			scrapes++
		}
	}
	if want := int(10*time.Second/scrapeEvery) - 1; scrapes != want {
		t.Errorf("%d scrapes in 10 s, want %d", scrapes, want)
	}
}

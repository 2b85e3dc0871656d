package main

// serve-interactive: single /v1/complete judge prompts through the
// router to 2 plain-judge replicas, open loop on a seeded Poisson
// schedule at serveRate requests/s, with serveRepeatShare of the prompts
// repeating earlier ones (dedup-store hits). A /metrics scrape of the
// router and both replicas runs every scrapeEvery inside the same
// loop, sharing its 2 slots. This is the human-facing path: singles
// through the daemon's micro-batcher, store reads beside writes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	llm4vv "repro"
	"repro/internal/judge"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/server"
)

const (
	// serveRate is the offered load in requests per second: under a
	// fifth of what 2 slots sustain at the daemon's ~3.7 ms single
	// latency, so the queue stays short and latency measures service
	// rather than the shared machine's hiccups amplified by queueing.
	serveRate = 100
	// serveRepeatShare is the share of requests repeating an earlier
	// prompt of the run.
	serveRepeatShare = 0.2
	// scrapeEvery is the metrics scrape cadence; each scrape reads the
	// router and both replicas, one after another.
	scrapeEvery = 250 * time.Millisecond
	// warmRequests is the warm-up's size, on a disjoint corpus.
	warmRequests = 200
	// latencyWindows splits a measured phase's requests, in due order,
	// into equal runs (100 requests each at 20 s, so 10 beyond p90);
	// p50_ms and p90_ms are the lower quartiles of the windows'
	// percentiles. The shared machine's bursts of stolen CPU time land
	// on a few windows and would move a whole-run percentile by tens of
	// percent from run to run; a change to the program moves every
	// window.
	latencyWindows = 20
)

// opScrape marks a scrape in an arrival's op field; requests use the
// index of their prompt.
const opScrape = -1

// servePrompt is one distinct judge prompt with its probe label.
type servePrompt struct {
	text  string
	valid bool
}

// servePrompts builds n distinct Direct-style judge prompts from a
// seeded Part-One corpus of both dialects.
func servePrompts(seed uint64, n int) ([]servePrompt, error) {
	var out []servePrompt
	for k := 0; len(out) < n; k++ {
		for _, d := range dialects {
			s := llm4vv.PartOneSpec(d)
			s.Seed = rng.New(seed).Split(fmt.Sprintf("serve/%d/%s", k, d)).Uint64()
			suite, err := llm4vv.BuildSuite(s)
			if err != nil {
				return nil, err
			}
			j := &judge.Judge{Style: judge.Direct, Dialect: d}
			for _, pf := range suite {
				out = append(out, servePrompt{text: j.BuildPrompt(pf.Source, nil), valid: pf.Issue == probe.IssueNone})
			}
		}
	}
	return out[:n], nil
}

// serveSchedule draws the open loop's arrivals for seconds of load:
// round(seconds*serveRate) Poisson request arrivals — a Poisson process
// conditioned on its count, so uniform due times, sorted — each
// picking a fresh prompt or, with probability serveRepeatShare, an
// earlier one; plus a scrape every scrapeEvery. Fixing the count keeps
// every seed's offered load the same. It returns the arrivals in due
// order and, per request op, the index of its prompt.
func serveSchedule(seed uint64, seconds float64) ([]arrival, []int) {
	r := rng.New(seed).Split("serve/schedule")
	span := time.Duration(seconds * float64(time.Second))
	due := make([]time.Duration, int(math.Round(seconds*serveRate)))
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(span))
	}
	slices.Sort(due)
	var arrivals []arrival
	prompt := make([]int, len(due))
	fresh := 0
	nextScrape := scrapeEvery
	for op, t := range due {
		for ; nextScrape <= t; nextScrape += scrapeEvery {
			arrivals = append(arrivals, arrival{due: nextScrape, op: opScrape})
		}
		if fresh > 0 && r.Float64() < serveRepeatShare {
			prompt[op] = r.Intn(fresh)
		} else {
			prompt[op] = fresh
			fresh++
		}
		arrivals = append(arrivals, arrival{due: t, op: op})
	}
	for ; nextScrape < span; nextScrape += scrapeEvery {
		arrivals = append(arrivals, arrival{due: nextScrape, op: opScrape})
	}
	return arrivals, prompt
}

func distinctPrompts(prompt []int) int {
	n := 0
	for _, p := range prompt {
		n = max(n, p+1)
	}
	return n
}

type serveSys struct {
	fleet *fleetHost
	// client is the generator's HTTP client; scrapes use their own so a
	// traced run times them as the perf layer, not the remote one.
	client, scraper *http.Client
}

func newServe(dir string, rec *recorder) (*serveSys, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := startFleet(fleetSpec{
		backend: llm4vv.DefaultBackend, seed: llm4vv.DefaultModelSeed, dir: dir, rec: rec,
		endpoint: func(i int) (judge.LLM, error) {
			llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
			if err != nil || rec == nil {
				return llm, err
			}
			return &timedLLM{inner: llm, rec: rec, layer: "model", host: fmt.Sprintf("replica-%d", i)}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	var rt http.RoundTripper = newTransport()
	if rec != nil {
		rt = &timedTransport{base: rt, rec: rec, layer: "remote", host: "gen"}
	}
	sys := &serveSys{fleet: f, client: &http.Client{Transport: rt}, scraper: &http.Client{Transport: newTransport()}}
	warm, err := servePrompts(warmup.corpusSeed("warm"), warmRequests)
	if err != nil {
		sys.close()
		return nil, err
	}
	for _, p := range warm {
		if _, err := sys.complete(p.text); err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

func (s *serveSys) close() error {
	s.client.CloseIdleConnections()
	s.scraper.CloseIdleConnections()
	return s.fleet.close()
}

// complete sends one prompt to the router. Any answer but a 200 with
// a well-formed body is an error: 429s and 5xx are not retried.
func (s *serveSys) complete(prompt string) (string, error) {
	body, err := json.Marshal(server.CompleteRequest{Prompt: prompt})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+s.fleet.addr()+"/v1/complete", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-LLM4VV-Client", "perfbench")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("router answered %s", resp.Status)
	}
	var out server.CompleteResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return "", fmt.Errorf("malformed response: %w", err)
	}
	return out.Response, nil
}

// servePhase is what one measured open-loop phase observed.
type servePhase struct {
	// outcomes are the requests', in op order, which is due order.
	outcomes  []outcome
	responses []string
	prompts   []servePrompt
	promptOf  []int
	scrapeMS  []float64
	gatherUS  []float64
	// scrapes and scrapesFailed count scrape rounds (one read of every
	// target each).
	scrapes, scrapesFailed int
	wall                   time.Duration
	// interval is the phase in recorder time, when traced.
	interval [2]int64
	heapMB   float64
}

func measureServe(c config, sys *serveSys, label string, seconds float64, rec *recorder) (*servePhase, error) {
	arrivals, promptOf := serveSchedule(c.corpusSeed(label), seconds)
	prompts, err := servePrompts(c.corpusSeed(label+"/corpus"), distinctPrompts(promptOf))
	if err != nil {
		return nil, err
	}
	ph := &servePhase{prompts: prompts, promptOf: promptOf, responses: make([]string, len(promptOf))}
	// Scrapes are spaced scrapeEvery apart, so they overlap only when
	// the generator runs that late; the lock covers that case.
	var mu sync.Mutex
	start := time.Now()
	if rec != nil {
		ph.interval[0] = rec.now()
	}
	outs := runOpenLoop(arrivals, slots, func(op int) bool {
		if op == opScrape {
			var at int64
			if rec != nil {
				at = rec.now()
			}
			ms, err := sys.fleet.scrape(sys.scraper)
			if rec != nil {
				rec.add(span{id: rec.next.Add(1), layer: "perf", host: "gen", start: at, end: rec.now(), n: 1})
			}
			mu.Lock()
			defer mu.Unlock()
			ph.scrapes++
			ph.scrapeMS = append(ph.scrapeMS, ms...)
			for _, r := range sys.fleet.replicas {
				ph.gatherUS = append(ph.gatherUS, float64(r.srv.GatherDelay())/1e3)
			}
			if err != nil {
				ph.scrapesFailed++
				return false
			}
			return true
		}
		resp, err := sys.complete(prompts[promptOf[op]].text)
		if err != nil {
			return false
		}
		ph.responses[op] = resp
		return true
	})
	ph.wall = time.Since(start)
	if rec != nil {
		ph.interval[1] = rec.now()
	}
	ph.heapMB = liveHeapMB()
	ph.outcomes = make([]outcome, len(promptOf))
	for i, a := range arrivals {
		if a.op != opScrape {
			ph.outcomes[a.op] = outs[i]
		}
	}
	return ph, nil
}

// checkServe compares every answered request with the in-process
// endpoint's answer for its prompt, byte for byte, and scores the
// verdicts against the probe labels. It returns the correctly judged
// requests and the failed operations: refused or failed requests and
// scrapes, malformed answers and mismatches.
func checkServe(ph *servePhase) (correct, failed int, err error) {
	ref, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		return 0, 0, err
	}
	texts := make([]string, len(ph.prompts))
	for i, p := range ph.prompts {
		texts[i] = p.text
	}
	want, err := referenceAnswers(ref, texts)
	if err != nil {
		return 0, 0, err
	}
	failed = ph.scrapesFailed
	for op, o := range ph.outcomes {
		p := ph.promptOf[op]
		got := ph.responses[op]
		v := judge.ParseVerdict(got)
		if !o.ok || got != want[p] || v == judge.Unparsable {
			failed++
			continue
		}
		if (v == judge.Valid) == ph.prompts[p].valid {
			correct++
		}
	}
	return correct, failed, nil
}

// windowQuantile is the lower quartile, over latencyWindows equal runs
// of requests in due order, of each run's p-quantile (failed requests
// as +Inf). It fails when a window has too few samples beyond its
// quantile.
func (ph *servePhase) windowQuantile(p float64) (float64, error) {
	ms := latenciesMS(ph.outcomes)
	qs := make([]float64, latencyWindows)
	for i := range qs {
		w := ms[i*len(ms)/latencyWindows : (i+1)*len(ms)/latencyWindows]
		q, err := quantile(w, p)
		if err != nil {
			return 0, fmt.Errorf("latency window %d: %w", i, err)
		}
		qs[i] = q
	}
	return nearestRank(qs, 0.25), nil
}

// operations counts a phase's attempted operations: requests and
// scrape rounds.
func (ph *servePhase) operations() int {
	return len(ph.outcomes) + ph.scrapes
}

func runServeInteractive(c config) (*report, error) {
	if c.trace {
		return traceServeInteractive(c)
	}
	n := 0
	sys, setup, err := timeSetup(func() (*serveSys, error) {
		n++
		return newServe(filepath.Join(c.dir, fmt.Sprintf("setup-%d", n)), nil)
	}, (*serveSys).close)
	if err != nil {
		return nil, err
	}
	ph, err := measureServe(c, sys, "measure", c.seconds, nil)
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	correct, failed, err := checkServe(ph)
	if err != nil {
		return nil, err
	}
	p50, err50 := ph.windowQuantile(0.5)
	p90, err90 := ph.windowQuantile(0.9)
	answered := 0
	for _, o := range ph.outcomes {
		if o.ok {
			answered++
		}
	}
	rep := &report{Attempted: int64(ph.operations()), Failed: int64(failed)}
	rep.Correct = failed == 0 && err50 == nil && err90 == nil
	rep.set("setup_s", setup, "s")
	rep.set("files_per_s", float64(answered)/ph.wall.Seconds(), "1/s")
	rep.set("accuracy_pct", 100*ratio(float64(correct), float64(len(ph.outcomes))), "%")
	rep.set("p50_ms", p50, "ms")
	rep.set("p90_ms", p90, "ms")
	rep.set("ok_pct", okPct(rep.Attempted, rep.Failed), "%")
	rep.set("live_heap_mb", ph.heapMB, "MB")
	return rep, nil
}

// traceServeInteractive runs the open loop untraced and then traced,
// for half the time each on fresh fleets, then times the store
// directly on the traced phase's prompts.
func traceServeInteractive(c config) (*report, error) {
	seconds := c.seconds / 2
	plain, err := newServe(filepath.Join(c.dir, "base"), nil)
	if err != nil {
		return nil, err
	}
	warmHeap := liveHeapMB()
	base, err := measureServe(c, plain, "measure", seconds, nil)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	sys, err := newServe(filepath.Join(c.dir, "traced"), rec)
	if err != nil {
		return nil, err
	}
	rec.reset()
	before := sys.fleet.counters(0)
	traced, err := measureServe(c, sys, "measure", seconds, rec)
	if err != nil {
		sys.close()
		return nil, err
	}
	after := sys.fleet.counters(0)
	if err := sys.close(); err != nil {
		return nil, err
	}
	spans := rec.snapshot()

	rep := &report{Attempted: int64(base.operations() + traced.operations())}
	for _, ph := range []*servePhase{base, traced} {
		_, failed, err := checkServe(ph)
		if err != nil {
			return nil, err
		}
		rep.Failed += int64(failed)
	}
	baseP50, err50 := quantile(latenciesMS(base.outcomes), 0.5)
	tracedP50, errT50 := quantile(latenciesMS(traced.outcomes), 0.5)
	rep.Correct = rep.Failed == 0 && err50 == nil && errT50 == nil

	m := newLayerMetrics()
	requests := float64(len(traced.outcomes))
	a := attribute(spans, [][2]int64{traced.interval}, map[string]string{"model": "server"}, isGenSpan)
	fleetLayers(m, spans, a, before, after, requests, traced.gatherUS)
	texts := make([]string, len(traced.prompts))
	answers := make([]string, len(traced.prompts))
	for op, p := range traced.promptOf {
		texts[p], answers[p] = traced.prompts[p].text, traced.responses[op]
	}
	sc, err := directStore(filepath.Join(c.dir, "direct.jsonl"), dedupRecords(llm4vv.DefaultBackend, texts, answers), int(math.Round(m["server.batch_size"])))
	if err != nil {
		return nil, err
	}
	sc.into(m)
	late := make([]float64, len(base.outcomes))
	for i, o := range base.outcomes {
		late[i] = float64(o.late) / 1e6
	}
	m.set("perf.scrape_ms", ratio(sum(base.scrapeMS), float64(len(base.scrapeMS))))
	m.set("perf.retained_b_per_req", ratio((base.heapMB-warmHeap)*(1<<20), float64(len(base.outcomes))))
	m.set("harness.overhead_pct", 100*(ratio(tracedP50, baseP50)-1))
	m.set("harness.late_p99_ms", nearestRank(late, 0.99))
	m.set("harness.samples", float64(len(base.outcomes)))
	m.into(rep)
	return rep, nil
}

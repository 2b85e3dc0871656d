package main

// panel-fleet: the panel experiment as a bulk sweep. A Runner (2
// workers, a fresh run store) judges the Part-One suites through
// remote:<router>; the router fronts 2 replicas, each serving a 3-seat
// deepseek-sim panel daemon-side. Closed loop. Work goes into the
// ensemble, the batch path of remote, fleet and server, and store
// writes on the client and the replicas, and none into compile or
// execution. Every pass draws fresh corpus seeds, so no prompt repeats
// within a run and the replicas' dedup stores never turn a pass into
// store hits.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	llm4vv "repro"
	"repro/internal/ensemble"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/rng"
	"repro/internal/store"
)

// panelMembers is the served panel: three deepseek-sim seats.
const panelMembers = "deepseek-sim+deepseek-sim+deepseek-sim"

const panelBackend = "ensemble:" + panelMembers

// panelRate is the throughput (files/s) panel-fleet's work is sized
// by; see sweepRate.
const panelRate = 1300

// panelSpecs returns one pass's suites: both dialects' Part-One suites
// (the panel experiment's) under fresh corpus seeds.
func panelSpecs(c config, label string, pass, scale int) []llm4vv.SuiteSpec {
	out := make([]llm4vv.SuiteSpec, len(dialects))
	for i, d := range dialects {
		s := llm4vv.PartOneSpec(d).Scaled(scale)
		s.Seed = c.corpusSeed(fmt.Sprintf("%s/%d/%s", label, pass, d))
		out[i] = s
	}
	return out
}

// tracedPanel builds the served panel with every seat and the panel
// itself behind timedLLM decorators. Seats are named and seeded as
// llm4vv.NewPanel seats them, so its answers are the shipped panel's;
// the correctness check compares them with the shipped panel byte for
// byte.
func tracedPanel(rec *recorder, host string, seed uint64) (judge.LLM, error) {
	names, strategy, err := ensemble.ParseSpec(panelMembers)
	if err != nil {
		return nil, err
	}
	members := make([]ensemble.Member, len(names))
	for i, n := range names {
		llm, err := llm4vv.NewBackend(n, rng.New(seed).Split(fmt.Sprintf("panel-member/%d/%s", i, n)).Uint64())
		if err != nil {
			return nil, err
		}
		members[i] = ensemble.Member{Name: fmt.Sprintf("%s#%d", n, i), LLM: &timedLLM{inner: llm, rec: rec, layer: "model", host: host}}
	}
	p, err := ensemble.New(ensemble.Config{Members: members, Strategy: strategy})
	if err != nil {
		return nil, err
	}
	return &timedLLM{inner: p, rec: rec, layer: "ensemble", host: host}, nil
}

type panelSys struct {
	fleet  *fleetHost
	runner *llm4vv.Runner
	client *remote.Backend
	counts *callCounts
	lat    *samples
}

func (s *panelSys) close() error {
	err := s.runner.Close()
	if ferr := s.fleet.close(); err == nil {
		err = ferr
	}
	return err
}

// newPanelFleet starts the fleet and the Runner and warms both on
// suites disjoint from the measured ones. With rec set, every layer is
// timed.
func newPanelFleet(dir string, rec *recorder) (*panelSys, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sp := fleetSpec{backend: panelBackend, seed: llm4vv.DefaultModelSeed, dir: dir, rec: rec}
	sp.endpoint = func(i int) (judge.LLM, error) {
		if rec != nil {
			return tracedPanel(rec, fmt.Sprintf("replica-%d", i), llm4vv.DefaultModelSeed)
		}
		return llm4vv.NewBackend(panelBackend, llm4vv.DefaultModelSeed)
	}
	f, err := startFleet(sp)
	if err != nil {
		return nil, err
	}
	var opts []remote.Option
	if rec != nil {
		opts = append(opts, remote.WithHTTPClient(&http.Client{Transport: &timedTransport{base: newTransport(), rec: rec, layer: "remote", host: "gen"}}))
	}
	// The registry keeps every backend registered for the process's
	// life, so the factory holds only the client, never the system: a
	// closed set-up's fleet and Runner must not stay in the live heap.
	client := remote.New(f.addr(), opts...)
	lat := &samples{}
	backend, counts := registerDecorated("remote", func(uint64) (judge.LLM, error) {
		return client, nil
	}, nil, "", "", lat)
	sys := &panelSys{fleet: f, client: client, counts: counts, lat: lat}
	sys.runner, err = llm4vv.NewRunner(llm4vv.WithBackend(backend), llm4vv.WithWorkers(slots),
		llm4vv.WithStore(filepath.Join(dir, "run.jsonl")))
	if err != nil {
		f.close()
		return nil, err
	}
	for _, s := range panelSpecs(warmup, "warm", 0, warmScale) {
		if _, err := sys.runner.PanelProbing(context.Background(), s); err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// measurePanel runs panel passes from to to (exclusive) of the label's
// suites and returns what it observed with the replicas' gather delay
// sampled after every suite.
func measurePanel(c config, sys *panelSys, label string, from, to int, rec *recorder) (*passPhase, []float64, error) {
	ref, err := llm4vv.NewBackend(panelBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		return nil, nil, err
	}
	var gatherUS []float64
	ph, err := runPasses(from, to, func(p int) []llm4vv.SuiteSpec { return panelSpecs(c, label, p, 1) }, rec,
		func(s llm4vv.SuiteSpec) (llm4vv.PanelDialectResult, error) {
			return sys.runner.PanelProbing(context.Background(), s)
		},
		func(s llm4vv.SuiteSpec, res llm4vv.PanelDialectResult) (int, int, error) {
			for _, r := range sys.fleet.replicas {
				gatherUS = append(gatherUS, float64(r.srv.GatherDelay())/1e3)
			}
			return checkPanel(s, res, sys.fleet, ref)
		})
	return ph, gatherUS, err
}

// checkPanel checks one suite's panel sweep against the in-process
// panel: every prompt's fleet answer, as the replica that served it
// recorded it, must byte-equal the in-process panel's answer, and the
// Runner's panel verdict scoring must equal the scoring of the
// in-process verdicts. It returns the files judged correctly against
// the probe labels and the number of failed checks.
func checkPanel(s llm4vv.SuiteSpec, res llm4vv.PanelDialectResult, f *fleetHost, ref judge.LLM) (correct, failed int, err error) {
	suite, err := llm4vv.BuildSuite(s)
	if err != nil {
		return 0, 0, err
	}
	j := &judge.Judge{Style: judge.Direct, Dialect: s.Dialect}
	prompts := make([]string, len(suite))
	for i, pf := range suite {
		prompts[i] = j.BuildPrompt(pf.Source, nil)
	}
	want, err := referenceAnswers(ref, prompts)
	if err != nil {
		return 0, 0, err
	}
	outcomes := make([]metrics.Outcome, len(suite))
	for i, p := range prompts {
		got, ok := servedResponse(f, p)
		if !ok || got != want[i] {
			failed++
		}
		outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: judge.ParseVerdict(want[i]) == judge.Valid}
	}
	if res.Panel != metrics.Score(s.Dialect, outcomes) {
		failed++
	}
	return res.Panel.Total - res.Panel.Mistakes, failed, nil
}

// referenceAnswers is the in-process endpoint's answers for prompts,
// computed on slots goroutines. It runs outside every timed interval;
// splitting only shortens the run, since an answer depends on its
// prompt alone.
func referenceAnswers(ref judge.LLM, prompts []string) ([]string, error) {
	out := make([]string, len(prompts))
	errs := make([]error, slots)
	chunk := (len(prompts) + slots - 1) / slots
	var wg sync.WaitGroup
	for i := range slots {
		lo, hi := min(i*chunk, len(prompts)), min((i+1)*chunk, len(prompts))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps, err := judge.CompleteAll(context.Background(), ref, prompts[lo:hi])
			copy(out[lo:hi], resps)
			errs[i] = err
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// servedResponse finds the answer a replica recorded for a prompt in
// its dedup store.
func servedResponse(f *fleetHost, prompt string) (string, bool) {
	key := store.Key{Experiment: dedupPhase, Backend: panelBackend, Seed: llm4vv.DefaultModelSeed, FileHash: judge.KeyOf(prompt).Hex()}
	for _, r := range f.replicas {
		if rec, ok := r.store.Get(key); ok {
			return rec.Response, true
		}
	}
	return "", false
}

func runPanelFleet(c config) (*report, error) {
	passSize := passFiles(panelSpecs(c, "size", 0, 1))
	if c.trace {
		return tracePanelFleet(c, passSize)
	}
	n := 0
	sys, setup, err := timeSetup(func() (*panelSys, error) {
		n++
		return newPanelFleet(filepath.Join(c.dir, fmt.Sprintf("setup-%d", n)), nil)
	}, (*panelSys).close)
	if err != nil {
		return nil, err
	}
	sys.lat.take()
	ph, _, err := measurePanel(c, sys, "measure", 0, numPasses(c.seconds, panelRate, passSize), nil)
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return endToEnd(ph, setup, sys.lat.take()), nil
}

// tracePanelFleet measures panel-fleet untraced and traced, on half
// the work each and separate fleets, pass by pass in turn, scraping the
// traced fleet's /metrics after each of its passes, then times
// the judge's prompt assembly and parsing and the store directly on
// the traced phase's first pass.
func tracePanelFleet(c config, passSize int) (*report, error) {
	passes := numPasses(c.seconds/2, panelRate, passSize)
	plain, err := newPanelFleet(filepath.Join(c.dir, "base"), nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	sys, err := newPanelFleet(filepath.Join(c.dir, "traced"), rec)
	if err != nil {
		plain.close()
		return nil, err
	}
	rec.reset()
	warmHeap := liveHeapMB()

	before := sys.fleet.counters(sys.client.Retries())
	calls, prompts := sys.counts.calls.Load(), sys.counts.prompts.Load()
	// The traced fleet is scraped after each of its passes, outside the
	// timed calls: a /metrics read of a fleet that has served a sweep.
	scraper := &http.Client{Transport: newTransport()}
	var gatherUS, scrapeMS []float64
	phases, firstHeap, err := interleave(passes, 2, func(i, p int) (*passPhase, error) {
		if i == 0 {
			ph, _, err := measurePanel(c, plain, "measure", p, p+1, nil)
			return ph, err
		}
		ph, g, err := measurePanel(c, sys, "measure", p, p+1, rec)
		if err != nil {
			return nil, err
		}
		gatherUS = append(gatherUS, g...)
		ms, err := sys.fleet.scrape(scraper)
		scrapeMS = append(scrapeMS, ms...)
		return ph, err
	})
	scraper.CloseIdleConnections()
	after := sys.fleet.counters(sys.client.Retries())
	calls, prompts = sys.counts.calls.Load()-calls, sys.counts.prompts.Load()-prompts
	if cerr := errors.Join(plain.close(), sys.close()); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	base, traced := phases[0], phases[1]
	spans := rec.snapshot()

	jc, recs, err := directPanelJudge(traced.first)
	if err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	files := float64(traced.files)
	a := attribute(spans, traced.intervals, map[string]string{"ensemble": "server", "model": "ensemble"}, nil)
	fleetLayers(m, spans, a, before, after, files, gatherUS)
	sc, err := directStore(filepath.Join(c.dir, "direct.jsonl"), recs, int(math.Round(m["server.batch_size"])))
	if err != nil {
		return nil, err
	}
	sc.into(m)
	_, memberPrompts := totalDur(spansOf(spans, "model"))
	m.set("judge.self_us_per_file", jc)
	m.set("judge.batch_size", ratio(float64(prompts), float64(calls)))
	m.set("ensemble.member_calls_per_file", ratio(float64(memberPrompts), files))
	m.set("ensemble.self_us_per_file", ratio(float64(a.self["ensemble"])/1e3, files))
	m.set("perf.retained_b_per_req", ratio((firstHeap-warmHeap)*(1<<20), float64(passFiles(base.first))))
	m.set("perf.scrape_ms", ratio(sum(scrapeMS), float64(len(scrapeMS))))
	m.set("harness.overhead_pct", 100*(1-ratio(traced.rate(), base.rate())))

	rep := &report{Attempted: int64(base.files + traced.files), Failed: int64(base.failed + traced.failed)}
	rep.Correct = rep.Failed == 0
	m.into(rep)
	return rep, nil
}

// directPanelJudge times the judge layer's own work for a panel sweep
// — assembling each Direct prompt and parsing the verdict and votes
// out of the panel's answer — on the given suites, and returns the
// mean microseconds per file with the dedup records the replicas wrote
// for those prompts.
func directPanelJudge(specs []llm4vv.SuiteSpec) (float64, []store.Record, error) {
	ref, err := llm4vv.NewBackend(panelBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		return 0, nil, err
	}
	var spent time.Duration
	var recs []store.Record
	files := 0
	for _, s := range specs {
		suite, err := llm4vv.BuildSuite(s)
		if err != nil {
			return 0, nil, err
		}
		j := &judge.Judge{Style: judge.Direct, Dialect: s.Dialect}
		prompts := make([]string, len(suite))
		for i, pf := range suite {
			start := time.Now()
			prompts[i] = j.BuildPrompt(pf.Source, nil)
			spent += time.Since(start)
		}
		resps, err := referenceAnswers(ref, prompts)
		if err != nil {
			return 0, nil, err
		}
		for _, r := range resps {
			start := time.Now()
			judge.ParseVerdict(r)
			if _, _, ok := ensemble.ParseVotes(r); !ok {
				return 0, nil, fmt.Errorf("panel answer without votes: %q", r)
			}
			spent += time.Since(start)
		}
		files += len(suite)
		recs = append(recs, dedupRecords(panelBackend, prompts, resps)...)
	}
	return ratio(float64(spent)/1e3, float64(files)), recs, nil
}

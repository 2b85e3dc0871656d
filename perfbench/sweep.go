package main

// sweep-local: the Part-Two validation pipeline as shipped —
// short-circuiting, 2 workers, the in-process deepseek-sim backend, no
// run store — over both dialects' Part-Two suites, closed loop. Time
// goes into compiler/testlang, machine, pipeline, judge and model, and
// none into remote, fleet, server or store.

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	llm4vv "repro"
	"repro/internal/agent"
	"repro/internal/judge"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/trace"
)

var dialects = []spec.Dialect{spec.OpenACC, spec.OpenMP}

// sweepRate is the throughput (files/s) the sweep's work is sized by:
// a run of --seconds s validates round(seconds*sweepRate) files' worth
// of whole passes, so every commit does the same work on a seed and a
// faster one finishes sooner.
const sweepRate = 550

// warmScale shrinks the warm-up suites (see SuiteSpec.Scaled).
const warmScale = 8

var backendSeq atomic.Int64

// registerDecorated registers a fresh backend name whose endpoints are
// build's, wrapped by a timedLLM, and returns the name and the
// decorator's call counters.
func registerDecorated(label string, build func(seed uint64) (judge.LLM, error), rec *recorder, layer, host string, lat *samples) (string, *callCounts) {
	name := fmt.Sprintf("perfbench/%s#%d", label, backendSeq.Add(1))
	counts := &callCounts{}
	llm4vv.RegisterBackend(name, func(seed uint64) judge.LLM {
		inner, err := build(seed)
		if err != nil {
			return nil
		}
		return &timedLLM{inner: inner, rec: rec, layer: layer, host: host, lat: lat, counts: counts}
	})
	return name, counts
}

// registerModel registers the in-process default backend behind a
// timedLLM.
func registerModel(rec *recorder, lat *samples) (string, *callCounts) {
	return registerDecorated(llm4vv.DefaultBackend, func(seed uint64) (judge.LLM, error) {
		return llm4vv.NewBackend(llm4vv.DefaultBackend, seed)
	}, rec, "model", "local", lat)
}

// passSpecs returns one pass's suites: both dialects' Part-Two suites
// with corpus seeds derived from label and the pass number.
func passSpecs(c config, label string, pass, scale int) []llm4vv.SuiteSpec {
	out := make([]llm4vv.SuiteSpec, len(dialects))
	for i, d := range dialects {
		s := llm4vv.PartTwoSpec(d).Scaled(scale)
		s.Seed = c.corpusSeed(fmt.Sprintf("%s/%d/%s", label, pass, d))
		out[i] = s
	}
	return out
}

func passFiles(specs []llm4vv.SuiteSpec) int {
	n := 0
	for _, s := range specs {
		n += s.Total()
	}
	return n
}

// numPasses sizes a measured phase: enough whole passes of passSize
// files for seconds of work at rate files/s, at least one.
func numPasses(seconds, rate float64, passSize int) int {
	return max(1, int(math.Round(seconds*rate/float64(passSize))))
}

// passPhase is what one measured closed-loop phase observed.
type passPhase struct {
	// timed is the total time spent inside the timed calls.
	timed                  time.Duration
	files, failed, correct int
	// intervals are the timed calls, in recorder time when the phase
	// was traced.
	intervals [][2]int64
	// first is the first measured pass's suites, for the direct passes.
	first  []llm4vv.SuiteSpec
	heapMB float64
}

// rate is the phase's throughput: files over the time spent inside the
// timed calls. Pass-to-pass cost varies with how many straggler files
// a corpus draws, so the whole phase is one sample rather than a
// median of a few passes.
func (ph *passPhase) rate() float64 { return float64(ph.files) / ph.timed.Seconds() }

// add folds a later part of the same phase into ph.
func (ph *passPhase) add(o *passPhase) {
	ph.timed += o.timed
	ph.files += o.files
	ph.failed += o.failed
	ph.correct += o.correct
	ph.intervals = append(ph.intervals, o.intervals...)
	ph.heapMB = o.heapMB
}

// interleave measures passes rounds; in round p it runs pass p on each
// of systems systems in turn, so drift over the run (warm-up, a heap
// grown by the recorder's spans, a neighbour's load) falls on every
// system alike and their rates compare. It returns each system's phase
// and the live heap after the first system's first pass, before any
// other system has run a measured pass.
func interleave(passes, systems int, measure func(sys, pass int) (*passPhase, error)) ([]*passPhase, float64, error) {
	out := make([]*passPhase, systems)
	var firstHeap float64
	for p := range passes {
		for i := range out {
			ph, err := measure(i, p)
			if err != nil {
				return nil, 0, err
			}
			if out[i] == nil {
				out[i] = ph
				if i == 0 {
					firstHeap = ph.heapMB
				}
				continue
			}
			out[i].add(ph)
		}
	}
	return out, firstHeap, nil
}

// runPasses runs passes from to to (exclusive) of the suites specs gives, timing
// each call. check runs after the call, outside the timed interval: it
// verifies the call's result and returns the files judged correctly
// against the probe labels and the failed checks. A call that fails
// fails every file of its suite.
func runPasses[R any](from, to int, specs func(pass int) []llm4vv.SuiteSpec, rec *recorder,
	call func(llm4vv.SuiteSpec) (R, error), check func(llm4vv.SuiteSpec, R) (correct, failed int, err error)) (*passPhase, error) {
	ph := &passPhase{}
	for p := from; p < to; p++ {
		suites := specs(p)
		if p == from {
			ph.first = suites
		}
		for _, s := range suites {
			var at int64
			if rec != nil {
				at = rec.now()
			}
			start := time.Now()
			res, err := call(s)
			ph.timed += time.Since(start)
			if rec != nil {
				ph.intervals = append(ph.intervals, [2]int64{at, rec.now()})
			}
			ph.files += s.Total()
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				ph.failed += s.Total()
				continue
			}
			correct, failed, err := check(s, res)
			if err != nil {
				return nil, err
			}
			ph.correct += correct
			ph.failed += failed
		}
	}
	ph.heapMB = liveHeapMB()
	return ph, nil
}

// newSweep builds the Runner and warms it on suites disjoint from the
// measured ones.
func newSweep(opts ...llm4vv.Option) (*llm4vv.Runner, error) {
	r, err := llm4vv.NewRunner(append([]llm4vv.Option{llm4vv.WithWorkers(slots)}, opts...)...)
	if err != nil {
		return nil, err
	}
	for _, s := range passSpecs(warmup, "warm", 0, warmScale) {
		if _, _, err := r.ValidateSuite(context.Background(), s, judge.AgentDirect); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// measureSweep validates passes from to to (exclusive) of the label's
// suites and returns what it observed with the pipeline's counters.
func measureSweep(c config, r *llm4vv.Runner, label string, from, to int, rec *recorder) (*passPhase, pipeline.Stats, error) {
	type validated struct {
		res []pipeline.FileResult
		st  pipeline.Stats
	}
	var stats pipeline.Stats
	ph, err := runPasses(from, to, func(p int) []llm4vv.SuiteSpec { return passSpecs(c, label, p, 1) }, rec,
		func(s llm4vv.SuiteSpec) (validated, error) {
			res, st, err := r.ValidateSuite(context.Background(), s, judge.AgentDirect)
			return validated{res, st}, err
		},
		func(s llm4vv.SuiteSpec, v validated) (int, int, error) {
			stats.Compiles += v.st.Compiles
			stats.Executions += v.st.Executions
			stats.JudgeCalls += v.st.JudgeCalls
			return checkSweep(s, v.res)
		})
	return ph, stats, err
}

// checkSweep scores one suite's results against the probe labels and
// checks that every file got a well-formed outcome: results in input
// order, a judged file with a parsable verdict, and an unjudged file
// stopped by a failing stage (the only reason short-circuiting skips
// the judge).
func checkSweep(s llm4vv.SuiteSpec, res []pipeline.FileResult) (correct, failed int, err error) {
	suite, err := llm4vv.BuildSuite(s)
	if err != nil {
		return 0, 0, err
	}
	if len(res) != len(suite) {
		return 0, len(suite), nil
	}
	for i, fr := range res {
		stopped := !fr.CompileOK || (fr.ExecRan && !fr.ExecOK)
		wellFormed := fr.Name == suite[i].Name && fr.CompileRan &&
			(fr.JudgeRan && fr.Verdict != judge.Unparsable || !fr.JudgeRan && stopped)
		if !wellFormed {
			failed++
			continue
		}
		if fr.Valid == suite[i].Issue.Valid() {
			correct++
		}
	}
	return correct, failed, nil
}

func runSweepLocal(c config) (*report, error) {
	passSize := passFiles(passSpecs(c, "size", 0, 1))
	if c.trace {
		return traceSweepLocal(c, passSize)
	}
	lat := &samples{}
	backend, _ := registerModel(nil, lat)
	r, setup, err := timeSetup(func() (*llm4vv.Runner, error) {
		return newSweep(llm4vv.WithBackend(backend))
	}, (*llm4vv.Runner).Close)
	if err != nil {
		return nil, err
	}
	lat.take()
	ph, _, err := measureSweep(c, r, "measure", 0, numPasses(c.seconds, sweepRate, passSize), nil)
	if err != nil {
		return nil, err
	}
	return endToEnd(ph, setup, lat.take()), nil
}

// endToEnd reports a closed-loop phase's end-to-end metrics; ms are
// the judge endpoint call latencies.
func endToEnd(ph *passPhase, setup float64, ms []float64) *report {
	rep := &report{Attempted: int64(ph.files), Failed: int64(ph.failed)}
	p50, err50 := quantile(ms, 0.5)
	p90, err90 := quantile(ms, 0.9)
	rep.Correct = ph.failed == 0 && err50 == nil && err90 == nil
	rep.set("setup_s", setup, "s")
	rep.set("files_per_s", ph.rate(), "1/s")
	rep.set("accuracy_pct", 100*ratio(float64(ph.correct), float64(ph.files)), "%")
	rep.set("p50_ms", p50, "ms")
	rep.set("p90_ms", p90, "ms")
	rep.set("ok_pct", okPct(rep.Attempted, rep.Failed), "%")
	rep.set("live_heap_mb", ph.heapMB, "MB")
	return rep
}

// traceSweepLocal measures the sweep three ways on half the work each
// — untraced, traced by the benchmark's decorators, and with the
// program's own tracer on — pass by pass in turn, then times the
// compiler and the machine directly on the traced phase's first pass.
func traceSweepLocal(c config, passSize int) (*report, error) {
	passes := numPasses(c.seconds/2, sweepRate, passSize)

	plain, err := newSweep()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	observe := func(stage string, d time.Duration) {
		end := rec.now()
		rec.add(span{id: rec.next.Add(1), layer: stage, host: "local", start: end - int64(d), end: end, n: 1})
	}
	backend, _ := registerModel(rec, nil)
	tracedSys, err := newSweep(llm4vv.WithBackend(backend), llm4vv.WithStages(
		pipeline.StageSpec{Name: pipeline.StageCompile, Observe: observe},
		pipeline.StageSpec{Name: pipeline.StageExec, Observe: observe},
		pipeline.StageSpec{Name: pipeline.StageJudge, Observe: observe},
	))
	if err != nil {
		return nil, err
	}
	tracerSys, err := newSweep(llm4vv.WithTracer(trace.New(trace.WithWriter(io.Discard), trace.WithProcess("perfbench"))))
	if err != nil {
		return nil, err
	}
	rec.reset()
	warmHeap := liveHeapMB()

	systems := []*llm4vv.Runner{plain, tracedSys, tracerSys}
	var stats pipeline.Stats
	phases, firstHeap, err := interleave(passes, len(systems), func(i, p int) (*passPhase, error) {
		var r *recorder
		if i == 1 {
			r = rec
		}
		ph, st, err := measureSweep(c, systems[i], "measure", p, p+1, r)
		if i == 1 {
			stats.Compiles += st.Compiles
			stats.Executions += st.Executions
			stats.JudgeCalls += st.JudgeCalls
		}
		return ph, err
	})
	if err != nil {
		return nil, err
	}
	base, traced, withTracer := phases[0], phases[1], phases[2]
	spans := rec.snapshot()

	direct, err := directToolchain(traced.first)
	if err != nil {
		return nil, err
	}

	rep := &report{
		Attempted: int64(base.files + traced.files + withTracer.files),
		Failed:    int64(base.failed + traced.failed + withTracer.failed),
	}
	rep.Correct = rep.Failed == 0
	m := newLayerMetrics()
	files := float64(traced.files)
	a := attribute(spans, traced.intervals, map[string]string{"model": pipeline.StageJudge}, nil)
	var stages []span
	var stageIdle int64
	for _, s := range spans {
		if s.layer != "model" {
			stages = append(stages, s)
		}
	}
	for _, iv := range traced.intervals {
		stageIdle += idleTime(stages, slots, iv[0], iv[1])
	}
	modelNS, prompts := totalDur(spansOf(spans, "model"))
	modelCalls := len(spansOf(spans, "model"))

	m.set("compiler.us_per_file", direct.compileUS*ratio(float64(stats.Compiles), files))
	m.set("machine.us_per_file", direct.execUS*ratio(float64(stats.Executions), files))
	m.set("machine.p99_ms", direct.execP99MS)
	m.set("pipeline.idle_pct", 100*ratio(float64(stageIdle), float64(slots*a.wall)))
	m.set("pipeline.judge_calls_per_file", ratio(float64(stats.JudgeCalls), files))
	m.set("judge.self_us_per_file", ratio(float64(a.self[pipeline.StageJudge])/1e3, files))
	m.set("judge.batch_size", ratio(float64(prompts), float64(modelCalls)))
	m.set("model.us_per_prompt", ratio(float64(modelNS)/1e3, float64(prompts)))
	m.set("model.prompts_per_file", ratio(float64(prompts), files))
	m.set("perf.retained_b_per_req", ratio((firstHeap-warmHeap)*(1<<20), float64(passFiles(base.first))))
	m.set("trace.overhead_pct", 100*(1-ratio(withTracer.rate(), base.rate())))
	m.set("harness.overhead_pct", 100*(1-ratio(traced.rate(), base.rate())))
	m.set("harness.unattributed_pct", a.unattributedPct())
	m.into(rep)
	return rep, nil
}

// toolchainCost is the direct pass's per-call compiler and machine
// cost.
type toolchainCost struct {
	compileUS, execUS, execP99MS float64
}

// directToolchain compiles and runs every file of the given suites
// with the same toolchain the pipeline uses, one file at a time, and
// reports the mean cost per compile and per execution and the
// execution p99 (the stragglers).
func directToolchain(specs []llm4vv.SuiteSpec) (toolchainCost, error) {
	var compileNS float64
	var compiles int
	var execs []float64
	for _, s := range specs {
		suite, err := llm4vv.BuildSuite(s)
		if err != nil {
			return toolchainCost{}, err
		}
		tools := agent.NewTools(s.Dialect)
		for _, f := range suite {
			start := time.Now()
			res := tools.Personality.Compile(f.Name, f.Source, f.Lang)
			compileNS += float64(time.Since(start))
			compiles++
			if !res.OK || res.Object == nil {
				continue
			}
			start = time.Now()
			machine.Run(res.Object, tools.MachineOpts)
			execs = append(execs, float64(time.Since(start)))
		}
	}
	return toolchainCost{
		compileUS: ratio(compileNS/1e3, float64(compiles)),
		execUS:    ratio(sum(execs)/1e3, float64(len(execs))),
		execP99MS: nearestRank(execs, 0.99) / 1e6,
	}, nil
}

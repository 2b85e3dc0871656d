// Command judgebench runs a single judge or pipeline configuration
// against a probed suite and prints its per-issue scorecard — the tool
// for exploring configurations beyond the paper's fixed experiments.
//
// Usage:
//
//	judgebench -dialect acc|omp -mode direct|agent|indirect|pipeline1|pipeline2 \
//	           [-scale K] [-seed N] [-backend NAME] [-show N] [-record-all=false]
//	judgebench -experiment NAME [-scale K] [-seed N] [-backend NAME] [-timeout D]
//	judgebench -compare [-scale K] [-seed N] [-store PATH [-resume]]
//	judgebench -panel [-panel-members a+b+c[:strategy]] [...]
//	judgebench -serve-addr HOST:PORT [...]
//	judgebench -store PATH -compact
//	judgebench -store PATH -store-stats
//	judgebench -trace-view FILE
//	judgebench -list
//	judgebench ... [-trace DIR] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -show N prints N sample prompt/response transcripts. -experiment
// dispatches any registered experiment through the same generic path
// cmd/llm4vv uses; -list enumerates registered experiments and
// backends.
//
// -compare sweeps every registered backend, and the one -backend or
// -serve-addr selects, over the same suites and renders a
// cross-backend metrics matrix (accuracy and bias per dialect).
// Combined with -store PATH, any run appends every sealed
// verdict to a persistent JSONL run store, and with -resume it skips
// every (backend, file) pair a previous run already judged — so an
// interrupted sweep restarts where it stopped, and a sweep re-run
// after registering one more backend judges only the new backend.
// -shard N sets the judge stage's batch size (the judge StageSpec's
// Batch); 0 picks one automatically, and a negative N is refused when
// the Runner is built. -stage-workers sizes individual pipeline stages
// ("judge=16" or "compile=2,exec=2,judge=32") where the uniform
// per-stage default is too coarse — a remote judge fleet saturates at
// a different width than the local compile simulator. Stage names are
// compile, exec, judge, and every N must be at least 1; scheduling
// knobs never change verdicts.
// -show transcripts require re-judging, so -store
// and -resume are ignored when -show is set.
//
// -panel runs the panel experiment: the suites judged by a voting
// ensemble of backends, scored for accuracy and for inter-judge
// agreement (Fleiss' kappa, pairwise agreement, per-member bias
// against the consensus). -panel-members chooses the seats —
// "a+b+c[:strategy]" over backend names, strategies majority
// (default), unanimous, weighted — checks the spec up front (a bad
// member fails naming it) and registers "ensemble:<spec>" as a
// backend, so it also joins any -compare sweep; without it the panel
// seats three copies of -backend, each under its own derived member
// seed. With -serve-addr
// the daemon must itself serve an ensemble backend (llm4vvd -backend
// ensemble:...); judgebench verifies that before judging starts.
//
// -serve-addr routes judging through a running llm4vvd daemon or
// llm4vv-router: it is shorthand for -backend remote:<addr> (with
// -compare, the daemon joins the sweep alongside the registered
// backends, as the Runner's own backend always does). A
// comma-separated replica list runs as the fleet router
// "fleet:addr1,addr2,..." instead.
// -timeout D cancels the run when the deadline passes, exactly like
// SIGINT. -store PATH -compact folds the run
// store into one canonical sealed segment plus an empty active file,
// dropping superseded duplicate and corrupt lines — maintenance for
// stores grown across many resumed runs. Compact offline: it truncates
// the active file, so another process appending to the same store (a
// running llm4vvd) would leave a corrupt line behind. -store PATH
// -store-stats prints the store's segment layout (active size, sealed
// segments, index entries, dropped lines) without modifying anything —
// see docs/OPERATIONS.md for how to read it; a daemon's background
// merge failures show on its llm4vv_store_merge_failing gauge.
//
// -trace DIR enables distributed tracing: every judged file opens its
// own trace, stage/cache/batch/remote spans land under it, and each
// completed trace appends one JSONL fragment to
// DIR/judgebench-trace.jsonl (created with the directory as needed).
// Judging through a daemon or router started with their own -trace
// flags, the remote processes' fragments share the same trace IDs —
// stitch them by concatenating the files. -trace-view FILE renders a
// JSONL trace file (any process's) as a terminal waterfall: one block
// per trace, spans indented under their parents with proportional
// duration bars.
//
// -cpuprofile/-memprofile write pprof profiles of the run (the heap
// profile is taken at exit, after a GC) so hot paths can be profiled
// in the field against real workloads; profiles are also written when
// the run ends in an error or a -timeout expiry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	llm4vv "repro"
	"repro/internal/agent"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	dialectFlag := flag.String("dialect", "acc", "acc or omp")
	mode := flag.String("mode", "pipeline1", "direct|agent|indirect|pipeline1|pipeline2")
	scale := flag.Int("scale", 4, "divide suite sizes by this factor")
	seed := flag.Uint64("seed", llm4vv.DefaultModelSeed, "model seed")
	backend := flag.String("backend", llm4vv.DefaultBackend, "LLM backend: a registered name, remote:ADDR, fleet:LIST or ensemble:SPEC")
	serveAddr := flag.String("serve-addr", "", "judge through the llm4vvd daemon or router at this address (as -backend remote:ADDR, overriding -backend; a comma-separated replica list routes through the fleet router, as -backend fleet:LIST)")
	timeout := flag.Duration("timeout", 0, "cancel the whole run after this duration (0 = no deadline)")
	show := flag.Int("show", 0, "print this many sample transcripts")
	recordAll := flag.Bool("record-all", true, "run every stage for every file (false = short-circuit)")
	experiment := flag.String("experiment", "", "dispatch a registered experiment instead of a mode")
	compare := flag.Bool("compare", false, "sweep every registered backend plus -backend and print a cross-backend metrics matrix")
	panel := flag.Bool("panel", false, "run the panel experiment: ensemble judging with inter-judge agreement metrics")
	panelMembers := flag.String("panel-members", "", "ensemble member spec a+b+c[:strategy], checked at once; registers ensemble:<spec> as a backend")
	storePath := flag.String("store", "", "append sealed verdicts to this JSONL run store")
	resume := flag.Bool("resume", false, "skip files already recorded in the run store (requires -store)")
	compact := flag.Bool("compact", false, "compact the run store into one sealed segment (drop superseded duplicates), then exit (requires -store)")
	storeStats := flag.Bool("store-stats", false, "print the run store's segment layout and exit (requires -store)")
	shard := flag.Int("shard", 0, "judge batch size (0 = automatic)")
	stageWorkers := flag.String("stage-workers", "", "per-stage pipeline workers, name=N comma-separated, N >= 1 (stages: compile, exec, judge)")
	traceDir := flag.String("trace", "", "write JSONL trace fragments to DIR/judgebench-trace.jsonl")
	traceView := flag.String("trace-view", "", "render a JSONL trace file as a terminal waterfall, then exit")
	list := flag.Bool("list", false, "list registered experiments and backends, then exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	fail(err)
	stopProfiles = stopProf
	defer func() { _ = stopProfiles() }()

	if *list {
		fmt.Println("registered experiments:")
		for _, e := range llm4vv.Experiments() {
			fmt.Printf("  %-10s %s\n", e.Name(), e.Description())
		}
		fmt.Println("registered backends:")
		for _, name := range llm4vv.Backends() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if *traceView != "" {
		fail(viewTraces(os.Stdout, *traceView))
		return
	}
	if *resume && *storePath == "" {
		fmt.Fprintln(os.Stderr, "judgebench: -resume requires -store")
		os.Exit(2)
	}
	if *compact {
		if *storePath == "" {
			fmt.Fprintln(os.Stderr, "judgebench: -compact requires -store")
			os.Exit(2)
		}
		// Open would silently create a missing path; maintenance on a
		// typo must fail, not report an empty store compacted.
		if _, err := os.Stat(*storePath); err != nil {
			fail(fmt.Errorf("-compact: %w", err))
		}
		st, err := store.Open(*storePath)
		fail(err)
		removed, err := st.Compact()
		fail(err)
		fail(st.Close())
		fmt.Printf("compacted %s: %d records kept, %d lines removed\n", *storePath, st.Len(), removed)
		return
	}
	if *storeStats {
		if *storePath == "" {
			fmt.Fprintln(os.Stderr, "judgebench: -store-stats requires -store")
			os.Exit(2)
		}
		if _, err := os.Stat(*storePath); err != nil {
			fail(fmt.Errorf("-store-stats: %w", err))
		}
		st, err := store.Open(*storePath)
		fail(err)
		stats := st.Stats()
		fail(st.Close())
		fmt.Printf("%s: %d keys, %d dropped lines\n", stats.Path, stats.Keys, stats.Dropped)
		fmt.Printf("  active: %d live records, %d lines, %d bytes\n", stats.ActiveRecords, stats.ActiveLines, stats.ActiveBytes)
		fmt.Printf("  sealed: %d segments, %d records\n", stats.SegmentCount(), stats.SegmentRecords())
		for _, sg := range stats.Segments {
			fmt.Printf("    %s: %d records, %d bytes, %d index entries\n", sg.Path, sg.Records, sg.Bytes, sg.IndexEntries)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serveAddr != "" {
		*backend = "remote:" + *serveAddr
	}
	if *panelMembers != "" {
		// Registration admits the panel into Backends() (and so into
		// -compare sweeps); it also becomes the judging backend unless
		// a daemon was selected. The spec is checked first, so a bad
		// member fails here naming it.
		_, err := llm4vv.NewPanel(*panelMembers, *seed)
		fail(err)
		members := *panelMembers
		name := "ensemble:" + members
		llm4vv.RegisterBackend(name, func(seed uint64) judge.LLM {
			if p, err := llm4vv.NewPanel(members, seed); err == nil {
				return p
			}
			return nil
		})
		if *serveAddr == "" {
			*backend = name
		}
	}
	if *panel {
		*experiment = "panel"
		if *serveAddr != "" {
			// The panel experiment needs responses that carry member
			// votes; a daemon fronting a single judge would fail only
			// after judging starts, so check what it serves up front —
			// and when -panel-members was given too, that the daemon
			// serves that exact panel rather than silently scoring a
			// different one.
			llm, err := llm4vv.NewBackend(*backend, *seed)
			fail(err)
			d, ok := llm.(interface {
				Info(context.Context) (server.BackendsResponse, error)
			})
			if !ok {
				fail(fmt.Errorf("backend %q cannot describe what it serves", *backend))
			}
			info, err := d.Info(ctx)
			if c, ok := llm.(interface{ Close() }); ok {
				c.Close() // a fleet Router's health loop
			}
			fail(err)
			if !strings.HasPrefix(info.Serving, "ensemble:") {
				fail(fmt.Errorf("daemon at %s serves backend %q, not an ensemble; start llm4vvd with -backend ensemble:a+b+c", *serveAddr, info.Serving))
			}
			if *panelMembers != "" && info.Serving != "ensemble:"+*panelMembers {
				fail(fmt.Errorf("daemon at %s serves %q, not the requested ensemble:%s; restart llm4vvd with -backend 'ensemble:%s' or drop -panel-members", *serveAddr, info.Serving, *panelMembers, *panelMembers))
			}
		}
	}
	if *compare {
		*experiment = "compare"
	}

	var d spec.Dialect
	switch *dialectFlag {
	case "acc":
		d = spec.OpenACC
	case "omp":
		d = spec.OpenMP
	default:
		fmt.Fprintln(os.Stderr, "judgebench: -dialect must be acc or omp")
		os.Exit(2)
	}

	style := judge.AgentDirect
	pipelineVerdict := false
	if *experiment == "" {
		switch *mode {
		case "direct":
			style = judge.Direct
		case "agent":
			style = judge.AgentDirect
		case "indirect":
			style = judge.AgentIndirect
		case "pipeline1":
			style, pipelineVerdict = judge.AgentDirect, true
		case "pipeline2":
			style, pipelineVerdict = judge.AgentIndirect, true
		default:
			fmt.Fprintln(os.Stderr, "judgebench: unknown -mode", *mode)
			os.Exit(2)
		}
	}

	// Judge-only scorecards (agent/indirect) need every file judged;
	// short-circuiting would score dropped files as judge-invalid and
	// measure the pipeline instead of the judge.
	runRecordAll := *recordAll
	if *experiment == "" && !pipelineVerdict && style != judge.Direct && !runRecordAll {
		fmt.Fprintln(os.Stderr, "judgebench: -mode", *mode, "scores the judge alone; forcing -record-all=true")
		runRecordAll = true
	}

	if *experiment == "" && *show > 0 {
		// Transcripts need kept responses, which the Runner's stored
		// path does not retain; judge through the toolchain directly.
		showTranscripts(ctx, d, llm4vv.PartTwoSpec(d).Scaled(*scale), *mode, style, pipelineVerdict, *backend, *seed, *scale, *show, runRecordAll)
		return
	}

	opts := []llm4vv.Option{
		llm4vv.WithBackend(*backend),
		llm4vv.WithSeed(*seed),
		llm4vv.WithRecordAll(runRecordAll),
		llm4vv.WithStages(pipeline.StageSpec{Name: pipeline.StageJudge, Batch: *shard}),
	}
	stages, err := pipeline.ParseStageWorkers(*stageWorkers)
	if err != nil {
		fail(fmt.Errorf("-stage-workers: %w", err))
	}
	opts = append(opts, llm4vv.WithStages(stages...))
	if *storePath != "" {
		opts = append(opts, llm4vv.WithStore(*storePath), llm4vv.WithResume(*resume))
	}
	if *traceDir != "" {
		fail(os.MkdirAll(*traceDir, 0o755))
		tf, err := os.OpenFile(filepath.Join(*traceDir, "judgebench-trace.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fail(err)
		defer tf.Close()
		opts = append(opts, llm4vv.WithTracer(trace.New(trace.WithWriter(tf), trace.WithProcess("judgebench"))))
	}
	runner, err := llm4vv.NewRunner(opts...)
	fail(err)

	if *experiment != "" {
		res, err := llm4vv.RunExperiment(ctx, runner, *experiment, llm4vv.ExperimentParams{Scale: *scale})
		fail(err)
		fmt.Println(res.Report())
		fail(runner.Close())
		return
	}

	suiteSpec := llm4vv.PartTwoSpec(d).Scaled(*scale)
	suite, err := llm4vv.BuildSuite(suiteSpec)
	fail(err)

	if style == judge.Direct {
		// The direct judge receives no tool info; evaluate outside the
		// pipeline for fidelity to Part One.
		sum, err := runner.DirectProbing(ctx, suiteSpec)
		fail(err)
		fmt.Println(report.PerIssueTable(fmt.Sprintf("Direct judge on %v (scale 1/%d)", d, *scale), sum))
		fail(runner.Close())
		return
	}

	results, stats, err := runner.ValidateSuite(ctx, suiteSpec, style)
	fail(err)
	outcomes := make([]metrics.Outcome, len(results))
	for i, r := range results {
		v := r.Verdict == judge.Valid
		if pipelineVerdict {
			v = r.Valid
		}
		outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: v}
	}
	title := fmt.Sprintf("%s on %v (scale 1/%d)", *mode, d, *scale)
	fmt.Println(report.PerIssueTable(title, metrics.Score(d, outcomes)))
	fmt.Printf("stage executions: compiles=%d runs=%d judge-calls=%d judge-batches=%d\n",
		stats.Compiles, stats.Executions, stats.JudgeCalls, stats.JudgeBatches)
	fail(runner.Close())
}

// showTranscripts reruns the configuration with responses kept,
// printing the first N transcripts alongside the scorecard.
func showTranscripts(ctx context.Context, d spec.Dialect, suiteSpec llm4vv.SuiteSpec, mode string, style judge.Style, pipelineVerdict bool, backend string, seed uint64, scale, show int, recordAll bool) {
	suite, err := llm4vv.BuildSuite(suiteSpec)
	fail(err)
	llm, err := llm4vv.NewBackend(backend, seed)
	fail(err)
	if c, ok := llm.(interface{ Close() }); ok {
		defer c.Close() // a fleet Router's health loop, a panel's members
	}
	jd := &judge.Judge{LLM: llm, Style: style, Dialect: d}
	if style == judge.Direct {
		outcomes := make([]metrics.Outcome, len(suite))
		for i, pf := range suite {
			ev, err := jd.Evaluate(ctx, pf.Source, nil)
			fail(err)
			outcomes[i] = metrics.Outcome{Issue: pf.Issue, JudgedValid: ev.Verdict == judge.Valid}
			if i < show {
				fmt.Printf("--- %s (issue %d) ---\n%s\n", pf.Name, pf.Issue, ev.Response)
			}
		}
		fmt.Println(report.PerIssueTable(fmt.Sprintf("Direct judge on %v (scale 1/%d)", d, scale),
			metrics.Score(d, outcomes)))
		return
	}
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}
	workers := runtime.GOMAXPROCS(0)
	results, stats, err := pipeline.Run(ctx, pipeline.Config{
		Tools: agent.NewTools(d),
		Judge: jd,
		Stages: []pipeline.StageSpec{
			{Name: pipeline.StageCompile, Workers: workers},
			{Name: pipeline.StageExec, Workers: workers},
			{Name: pipeline.StageJudge, Workers: workers},
		},
		RecordAll:     recordAll,
		KeepResponses: true,
	}, inputs)
	fail(err)
	outcomes := make([]metrics.Outcome, len(results))
	shown := 0
	for i, r := range results {
		v := r.Verdict == judge.Valid
		if pipelineVerdict {
			v = r.Valid
		}
		outcomes[i] = metrics.Outcome{Issue: suite[i].Issue, JudgedValid: v}
		if shown < show && r.Evaluation != nil {
			fmt.Printf("--- %s (issue %d, pipeline valid=%v) ---\n%s\n",
				r.Name, suite[i].Issue, r.Valid, r.Evaluation.Response)
			shown++
		}
	}
	title := fmt.Sprintf("%s on %v (scale 1/%d)", mode, d, scale)
	fmt.Println(report.PerIssueTable(title, metrics.Score(d, outcomes)))
	fmt.Printf("stage executions: compiles=%d runs=%d judge-calls=%d\n",
		stats.Compiles, stats.Executions, stats.JudgeCalls)
}

// stopProfiles finalises -cpuprofile/-memprofile; fail routes through
// it so profiles survive error exits (os.Exit skips defers), which is
// exactly when a -timeout-bounded profiling run ends.
var stopProfiles = func() error { return nil }

func fail(err error) {
	if err != nil {
		_ = stopProfiles()
		fmt.Fprintln(os.Stderr, "judgebench:", err)
		os.Exit(1)
	}
}

// Command llm4vv reproduces every table and figure of the paper's
// evaluation section by dispatching the registered experiments
// generically: running it with no flags regenerates Tables I-IX, the
// data series behind Figures 3-6, and the ablations and generation
// loop called out in DESIGN.md.
//
// Usage:
//
//	llm4vv [-seed N] [-scale K] [-backend NAME] [-serve-addr HOST:PORT] \
//	       [-workers N] [-stage-workers name=N,...] [-shard N] \
//	       [-timeout D] [-trace DIR] \
//	       [-experiment all|list|NAME] [-progress] [-store PATH [-resume]]
//
// -experiment list enumerates the registered experiments (and the
// registered backends); any registered name — including scenarios
// added by third-party packages via llm4vv.RegisterExperiment, and
// the panel experiment (`-experiment panel`), which judges the suites
// with a voting ensemble and scores inter-judge agreement — runs
// through the same generic path. -scale K divides every suite's
// per-issue counts by K for quick runs. Interrupting the process
// (SIGINT) cancels the run's context and exits promptly; with
// -store PATH every sealed verdict was appended to the run store on
// the way, and re-running with -resume picks up where the interrupted
// run stopped, re-judging zero completed files. -shard N sets the
// judge stage's batch size (the judge StageSpec's Batch), 0 =
// automatic; a negative N is refused when the Runner is built.
// -stage-workers overrides -workers for individual pipeline stages
// ("judge=16", or comma-separated "compile=2,exec=2,judge=32"; stage
// names compile, exec, judge; N >= 1) — the knob for sizing the judge
// pool to a remote fleet while the local tool stages stay narrow.
// Scheduling knobs never change verdicts or reports.
//
// -serve-addr routes all judging through a running llm4vvd daemon:
// it is shorthand for -backend remote:<addr>, so many worker
// processes can share one judging service (the daemon's backend and
// seed govern; they are fixed at daemon start). A comma-separated
// replica list runs as the fleet router "fleet:addr1,addr2,..."
// instead. -timeout D wraps the whole run in
// a deadline — the run is cancelled cleanly, exactly like SIGINT.
//
// -trace DIR enables distributed tracing: every judged file opens its
// own trace and each completed trace appends one JSONL fragment to
// DIR/llm4vv-trace.jsonl. Render with `judgebench -trace-view`; when
// judging through daemons started with -trace, their fragments carry
// the same trace IDs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	llm4vv "repro"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

func main() {
	seed := flag.Uint64("seed", llm4vv.DefaultModelSeed, "model sampling seed")
	scale := flag.Int("scale", 1, "divide suite sizes by this factor")
	backend := flag.String("backend", llm4vv.DefaultBackend, "LLM backend: a registered name, remote:ADDR, fleet:LIST or ensemble:SPEC")
	serveAddr := flag.String("serve-addr", "", "judge through the llm4vvd daemon or router at this address (as -backend remote:ADDR, overriding -backend; a comma-separated replica list routes through the fleet router, as -backend fleet:LIST)")
	timeout := flag.Duration("timeout", 0, "cancel the whole run after this duration (0 = no deadline)")
	workers := flag.Int("workers", 0, "per-stage workers (0 = GOMAXPROCS)")
	stageWorkers := flag.String("stage-workers", "", "per-stage pipeline workers, name=N comma-separated, N >= 1 (stages: compile, exec, judge; overrides -workers)")
	shard := flag.Int("shard", 0, "judge batch size (0 = automatic)")
	experiment := flag.String("experiment", "all", "all|list|<registered name>")
	progress := flag.Bool("progress", false, "stream per-file progress to stderr")
	storePath := flag.String("store", "", "append sealed verdicts to this JSONL run store")
	resume := flag.Bool("resume", false, "skip files already recorded in the run store (requires -store)")
	traceDir := flag.String("trace", "", "write JSONL trace fragments to DIR/llm4vv-trace.jsonl")
	flag.Parse()

	if *resume && *storePath == "" {
		fmt.Fprintln(os.Stderr, "llm4vv: -resume requires -store")
		os.Exit(2)
	}

	if *experiment == "list" {
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

	if *serveAddr != "" {
		*backend = "remote:" + *serveAddr
	}
	opts := []llm4vv.Option{
		llm4vv.WithBackend(*backend),
		llm4vv.WithSeed(*seed),
		llm4vv.WithStages(pipeline.StageSpec{Name: pipeline.StageJudge, Batch: *shard}),
	}
	if *workers > 0 {
		opts = append(opts, llm4vv.WithWorkers(*workers))
	}
	stages, err := pipeline.ParseStageWorkers(*stageWorkers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "llm4vv: -stage-workers: %v\n", err)
		os.Exit(2)
	}
	opts = append(opts, llm4vv.WithStages(stages...))
	if *storePath != "" {
		opts = append(opts, llm4vv.WithStore(*storePath), llm4vv.WithResume(*resume))
	}
	if *traceDir != "" {
		check(os.MkdirAll(*traceDir, 0o755))
		tf, err := os.OpenFile(filepath.Join(*traceDir, "llm4vv-trace.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		check(err)
		defer tf.Close()
		opts = append(opts, llm4vv.WithTracer(trace.New(trace.WithWriter(tf), trace.WithProcess("llm4vv"))))
	}
	if *progress {
		opts = append(opts, llm4vv.WithProgress(func(p llm4vv.Progress) {
			fmt.Fprintf(os.Stderr, "\r%-28s %d/%d", p.Phase, p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	runner, err := llm4vv.NewRunner(opts...)
	check(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	params := llm4vv.ExperimentParams{Scale: *scale}
	names := []string{*experiment}
	if *experiment == "all" {
		names = names[:0]
		for _, e := range llm4vv.Experiments() {
			// "all" reproduces the paper's experiments once on the
			// selected backend; the cross-backend compare sweep would
			// re-judge the Part One suites per registered backend, so
			// it runs only when asked for by name.
			if e.Name() == "compare" {
				continue
			}
			names = append(names, e.Name())
		}
	}

	start := time.Now()
	for _, name := range names {
		res, err := llm4vv.RunExperiment(ctx, runner, name, params)
		check(err)
		fmt.Println(res.Report())
	}
	check(runner.Close())
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "llm4vv:", err)
		os.Exit(1)
	}
}

package llm4vv

// The BenchmarkThroughput* suite is the performance harness (DESIGN.md
// §10): files/sec and allocs/op on every hot path — prompt assembly,
// the hash-keyed judge cache, the write-behind store, the staged
// pipeline, the serving daemon, and the ensemble panel — plus p50/p99
// stage latencies extracted through internal/perf. cmd/benchci gates
// the files/sec and allocs/op entries against BENCH_baseline.json on
// a ratio band (the CI perf job), while the accuracy metrics of
// bench_test.go stay gated on exact tolerances; the *-ns latency
// quantiles are recorded in the artifact but never gated — they are
// diagnostics, not contracts.

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/testlang"
	"repro/internal/trace"
)

// benchSink keeps prompt assembly from being optimised away.
var benchSink string

func benchSuiteInputs(b *testing.B) []pipeline.Input {
	b.Helper()
	suite, err := BuildSuite(PartTwoSpec(spec.OpenACC).Scaled(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]pipeline.Input, len(suite))
	for i, pf := range suite {
		inputs[i] = pipeline.Input{Name: pf.Name, Source: pf.Source, Lang: pf.Lang}
	}
	return inputs
}

// BenchmarkThroughputPromptAssembly — the zero-allocation prompt
// assembler: agent-direct prompts (criteria + tool block + code) for
// the whole suite per iteration.
func BenchmarkThroughputPromptAssembly(b *testing.B) {
	inputs := benchSuiteInputs(b)
	j := &judge.Judge{Style: judge.AgentDirect, Dialect: spec.OpenACC}
	info := &judge.ToolInfo{CompileRC: 0, CompileStdout: "ok", Ran: true, RunRC: 0, RunStdout: "PASS"}
	benchSink = j.BuildPrompt(inputs[0].Source, info) // warm the segment cache and buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			benchSink = j.BuildPrompt(in.Source, info)
			files++
		}
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputCachedJudge — steady-state judging through the
// hash-keyed eval cache: every prompt is a memo hit resolved without
// an endpoint call.
func BenchmarkThroughputCachedJudge(b *testing.B) {
	inputs := benchSuiteInputs(b)
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	j := &judge.Judge{LLM: judge.Cached(llm), Style: judge.Direct, Dialect: spec.OpenACC}
	codes := make([]string, len(inputs))
	for i, in := range inputs {
		codes[i] = in.Source
	}
	if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
		b.Fatal(err) // prime the memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
			b.Fatal(err)
		}
		files += len(codes)
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputStoreWrite — the write-behind run store: 64
// sealed verdicts per iteration through Put, with one Flush per
// iteration (the checkpoint cadence of a judged batch).
func BenchmarkThroughputStoreWrite(b *testing.B) {
	path := filepath.Join(b.TempDir(), "run.jsonl")
	s, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Distinct hashes prepared outside the timer; the varying Seed
	// keeps every iteration's keys fresh without allocating in-loop.
	hashes := make([]string, 64)
	for k := range hashes {
		hashes[k] = fmt.Sprintf("%08d-hash", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	recs := 0
	for i := 0; i < b.N; i++ {
		for k := 0; k < 64; k++ {
			rec := store.Record{
				Experiment: "bench/throughput", Backend: "deepseek-sim", Seed: uint64(i),
				FileHash: hashes[k], Name: "t.c",
				JudgeRan: true, Verdict: "valid", Valid: true,
			}
			if err := s.Put(rec); err != nil {
				b.Fatal(err)
			}
			recs++
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perf.Rate(recs, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputStoreLookup — point lookups against a million-
// record segmented store: Get resolves each key through the segment
// Bloom filters and sparse indexes (one bounded block read per hit),
// never a scan — the property that lets the store outgrow memory
// (DESIGN.md §12, docs/STORE.md). The store is built outside the
// timer; the timed loop is pure Get traffic across the whole keyspace.
func BenchmarkThroughputStoreLookup(b *testing.B) {
	const total = 1 << 20
	path := filepath.Join(b.TempDir(), "run.jsonl")
	// Seal roughly every 16 MiB and skip background merging: the point
	// is lookups against many sealed segments, not merge throughput.
	s, err := store.OpenWith(path, store.Options{SealBytes: 16 << 20, MergeThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	hashes := make([]string, total)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%08x-hash", i)
	}
	for i := 0; i < total; i++ {
		rec := store.Record{
			Experiment: "bench/lookup", Backend: "deepseek-sim", Seed: uint64(i >> 16),
			FileHash: hashes[i], Name: "t.c",
			JudgeRan: true, Verdict: "valid", Valid: true,
		}
		if err := s.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if s.Stats().SegmentCount() == 0 {
		b.Fatal("store did not seal any segments; lookups would only hit the in-memory active set")
	}
	b.ReportAllocs()
	b.ResetTimer()
	lookups := 0
	for i := 0; i < b.N; i++ {
		// A multiplicative stride walks the keyspace in a scattered
		// order without per-iteration randomness.
		k := (uint64(i) * 2654435761) % total
		key := store.Key{Experiment: "bench/lookup", Backend: "deepseek-sim",
			Seed: k >> 16, FileHash: hashes[k]}
		rec, ok := s.Get(key)
		if !ok || rec.FileHash != hashes[k] {
			b.Fatalf("lookup %d: key %v missing or wrong record", i, key)
		}
		lookups++
	}
	b.ReportMetric(perf.Rate(lookups, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputPipeline — the staged compile → execute → judge
// pipeline end to end in record-all mode, with per-stage p50/p99
// latencies extracted through the perf recorder (reported as *-ns
// diagnostics, never gated).
func BenchmarkThroughputPipeline(b *testing.B) {
	inputs := benchSuiteInputs(b)
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	tools := agent.NewTools(spec.OpenACC)
	rec := perf.NewRecorder()
	cfg := pipeline.Config{
		Tools: tools,
		Judge: &judge.Judge{LLM: llm, Style: judge.AgentDirect, Dialect: spec.OpenACC},
		Stages: []pipeline.StageSpec{
			{Name: pipeline.StageCompile, Workers: 4, Observe: rec.Observe},
			{Name: pipeline.StageExec, Workers: 4, Observe: rec.Observe},
			{Name: pipeline.StageJudge, Workers: 4, Batch: 16, Observe: rec.Observe},
		},
		RecordAll: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		if _, _, err := pipeline.Run(context.Background(), cfg, inputs); err != nil {
			b.Fatal(err)
		}
		files += len(inputs)
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
	// Latency families come from whatever stages the chain ran — no
	// hard-coded stage list to drift when the chain changes.
	rec.ReportQuantiles(b.ReportMetric)
}

// BenchmarkThroughputPipelineTraced — the same staged pipeline with
// distributed tracing on (per-file trace roots, stage spans, batch
// carriers), fragments serialised to a discarded writer. Gated as its
// own files/sec band next to the untraced pipeline's, so tracing
// overhead cannot silently grow — and the untraced benchmark's
// allocs/op band is the proof that a nil tracer stays free.
func BenchmarkThroughputPipelineTraced(b *testing.B) {
	inputs := benchSuiteInputs(b)
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{
		Tools: agent.NewTools(spec.OpenACC),
		Judge: &judge.Judge{LLM: llm, Style: judge.AgentDirect, Dialect: spec.OpenACC},
		Stages: []pipeline.StageSpec{
			{Name: pipeline.StageCompile, Workers: 4},
			{Name: pipeline.StageExec, Workers: 4},
			{Name: pipeline.StageJudge, Workers: 4, Batch: 16},
		},
		RecordAll: true,
		Tracer:    trace.New(trace.WithWriter(io.Discard), trace.WithProcess("bench")),
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		if _, _, err := pipeline.Run(context.Background(), cfg, inputs); err != nil {
			b.Fatal(err)
		}
		files += len(inputs)
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputMachine — the execution layer alone: every file
// of both dialects' scaled Part-Two suites that compiles, run through
// the interpreter with the agent toolchain's machine options. The
// suites are compiled outside the timer, so files/sec and allocs/op
// are the machine's own.
func BenchmarkThroughputMachine(b *testing.B) {
	type program struct {
		obj  *compiler.Object
		opts machine.Options
	}
	var progs []program
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		suite, err := BuildSuite(PartTwoSpec(d).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		tools := agent.NewTools(d)
		for _, pf := range suite {
			if res := tools.Personality.Compile(pf.Name, pf.Source, pf.Lang); res.OK && res.Object != nil {
				progs = append(progs, program{res.Object, tools.MachineOpts})
			}
		}
	}
	if len(progs) == 0 {
		b.Fatal("no file of the suites compiled")
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			machine.Run(p.obj, p.opts)
			files++
		}
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputCompile — the compile layer alone: every file of
// both dialects' scaled Part-Two suites through the agent toolchain's
// compiler personality (front end, checker and plans). The suites are
// built outside the timer, so files/sec and allocs/op are the
// compiler's own.
func BenchmarkThroughputCompile(b *testing.B) {
	type source struct {
		pers       *compiler.Personality
		name, text string
		lang       testlang.Language
	}
	var srcs []source
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		suite, err := BuildSuite(PartTwoSpec(d).Scaled(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		pers := agent.NewTools(d).Personality
		for _, pf := range suite {
			srcs = append(srcs, source{pers, pf.Name, pf.Source, pf.Lang})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			s.pers.Compile(s.name, s.text, s.lang)
			files++
		}
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputServer — the judging daemon over loopback HTTP:
// the whole suite as one /v1/complete_batch shard per iteration. The
// batch route resolves the shard directly; it never enters the
// single-prompt micro-batcher.
func BenchmarkThroughputServer(b *testing.B) {
	inputs := benchSuiteInputs(b)
	llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{LLM: llm, Backend: DefaultBackend, Seed: DefaultModelSeed})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rb := remote.New(ts.URL, remote.WithBackoff(time.Millisecond))
	j := &judge.Judge{LLM: rb, Style: judge.Direct, Dialect: spec.OpenACC}
	codes := make([]string, len(inputs))
	for i, in := range inputs {
		codes[i] = in.Source
	}
	if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
		b.Fatal(err) // warm the HTTP connection pool and the model tables
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
			b.Fatal(err)
		}
		files += len(codes)
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputFleetRouting — the fleet tier over loopback
// HTTP: the suite judged through a consistent-hash router fanning
// each batch out across two daemon replicas concurrently.
func BenchmarkThroughputFleetRouting(b *testing.B) {
	inputs := benchSuiteInputs(b)
	addrs := make([]string, 2)
	for i := range addrs {
		llm, err := NewBackend(DefaultBackend, DefaultModelSeed)
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(server.Config{LLM: llm, Backend: DefaultBackend, Seed: DefaultModelSeed})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	rt, err := fleet.Dial(strings.Join(addrs, ","), remote.WithBackoff(time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	j := &judge.Judge{LLM: rt, Style: judge.Direct, Dialect: spec.OpenACC}
	codes := make([]string, len(inputs))
	for i, in := range inputs {
		codes[i] = in.Source
	}
	if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
		b.Fatal(err) // warm the HTTP connection pools and the model tables
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
			b.Fatal(err)
		}
		files += len(codes)
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

// BenchmarkThroughputEnsemble — a three-seat panel judging the suite:
// one sharded pass fanning every batch out to all members
// concurrently.
func BenchmarkThroughputEnsemble(b *testing.B) {
	inputs := benchSuiteInputs(b)
	panel, err := NewPanel("deepseek-sim+deepseek-sim+deepseek-sim", DefaultModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	j := &judge.Judge{LLM: panel, Style: judge.Direct, Dialect: spec.OpenACC}
	codes := make([]string, len(inputs))
	for i, in := range inputs {
		codes[i] = in.Source
	}
	if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	files := 0
	for i := 0; i < b.N; i++ {
		if _, err := j.EvaluateBatch(context.Background(), codes, nil); err != nil {
			b.Fatal(err)
		}
		files += len(codes)
	}
	b.ReportMetric(perf.Rate(files, b.Elapsed()), "files/sec")
}

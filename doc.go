// Package llm4vv is the public API of the LLM4VV reproduction: an
// LLM-as-a-judge (LLMJ) framework for validating compiler V&V tests
// for the directive-based programming models OpenACC and OpenMP,
// following "LLM4VV: Exploring LLM-as-a-Judge for Validation and
// Verification Testsuites" (SC 2024, arXiv:2408.11729).
//
// The package composes the internal substrates — a synthetic V&V test
// corpus, negative-probing mutators, a simulated OpenACC/OpenMP
// compiler and execution machine, a simulated code LLM, the
// agent-based judging harness, and the staged validation pipeline —
// into the paper's experiments:
//
//   - Part One (§V-A): the judge alone, with the direct analysis
//     prompt, scored by negative probing (Tables I-III).
//   - Part Two (§V-B): agent-based judges (LLMJ 1 and LLMJ 2) and the
//     compile → execute → judge validation pipeline (Tables IV-IX,
//     Figures 3-6).
//
// The API is organised around three pluggable concepts:
//
//   - Runner: constructed with functional options (WithBackend,
//     WithWorkers, WithShardSize, WithRecordAll, WithEvalCache,
//     WithProgress, WithStore, WithStoreOptions, WithResume), its
//     context-aware methods
//     run every experiment cancellably and can stream per-file
//     progress. Every phase runs on the pipeline's stage graph —
//     direct judging as a one-stage graph of the judge stage — and
//     each judge batch's prompts reach the endpoint in one call when
//     it supports that.
//   - Backend registry: RegisterBackend plugs alternate LLM endpoints
//     in by name; the simulated deepseek model ships as
//     DefaultBackend. The required contract is judge.LLM; endpoints
//     may add judge.ContextLLM (cancellation), judge.BatchLLM (whole
//     batches per call), and genloop.Author (test authoring).
//   - Experiment registry: RegisterExperiment makes a scenario
//     dispatchable by name through RunExperiment; Part One, Part Two,
//     the ablations, the generation loop, and the cross-backend
//     compare sweep ship registered, and cmd/llm4vv and
//     cmd/judgebench enumerate and run any registered scenario
//     generically.
//
// Runs are durable and resumable: WithStore attaches a persistent run
// store keyed by (experiment, backend, seed, file content hash) to
// which every sealed verdict is appended as it lands, and WithResume
// makes experiments skip files a previous run already completed — an
// interrupted sweep restarted under the same configuration re-judges
// nothing it finished and reproduces the uninterrupted metrics
// exactly. The store is a segmented log built for millions of
// records: the active JSONL file seals into sorted immutable segments
// with sparse indexes and Bloom filters (point lookups never scan),
// sealed segments merge in the background, and streaming filtered
// scans feed analytics and panel calibration — see DESIGN.md §5/§12,
// docs/STORE.md for the format and crash contract, and
// examples/store.
//
// Judging also runs as a service: cmd/llm4vvd fronts any registered
// backend over HTTP with dynamic micro-batching, bounded admission
// (429 + Retry-After on overload), and store-backed completion dedup,
// and the "remote:<addr>" backend (RegisterRemoteBackend, or the
// -serve-addr flag on both commands) points any experiment at a
// running daemon with byte-identical metrics — see DESIGN.md §8 and
// examples/service.
//
// Daemons scale horizontally as a fleet: cmd/llm4vv-router fronts N
// replicas behind one address, consistent-hash routing each prompt to
// the replica owning its content key (so per-replica stores and
// caches stay authoritative), with bounded-load spill, health-watched
// ring membership with request failover, priority-class load shedding
// (bulk sweeps yield to interactive traffic), per-client quotas, and
// Prometheus /metrics on both tiers. The "fleet:addr1,addr2,..."
// backend (RegisterFleetBackend) routes in-process, and reports stay
// byte-identical to a single daemon even across a replica killed
// mid-sweep — see DESIGN.md §11 and examples/fleet.
//
// Backends compose into voting ensembles: "ensemble:a+b+c[:strategy]"
// (NewPanel, RegisterEnsembleBackend) seats any registered backends —
// remote daemons included — on one panel that fans every batch out
// concurrently per member and combines votes by majority, unanimity
// with a deterministic tiebreak, or store-calibrated weights, with
// quorum semantics when members fail. The "panel" experiment scores a
// panel both as a judge and for inter-judge reliability (Fleiss'
// kappa, pairwise agreement, per-member bias against the consensus),
// persists per-member votes in the run store so resumed panel runs
// re-judge nothing, and reproduces byte-identical reports through a
// daemon serving the ensemble — see DESIGN.md §9 and examples/panel.
//
// The hot paths are measured and gated: prompt assembly is
// zero-allocation (precomputed per-dialect segments into pooled
// buffers — one allocation per prompt, the returned string), the
// eval cache and the daemon dedup key by 32-byte prompt content
// hashes (judge.PromptKey), the run store is write-behind (buffered
// appends, a Flush checkpoint after every judge batch's worth of
// records and at phase end, in every phase), the daemon's
// micro-batcher is work-conserving (no gather timer), and resumed
// files are filtered out before the stage graph runs, so
// resume-thinned sweeps still reach endpoints in full batches. The
// BenchmarkThroughput* suite reports files/sec, allocs/op, and
// p50/p99 stage latencies per path, and cmd/benchci gates the
// throughput and allocation metrics in CI on ratio bands while
// accuracy stays exact-gated; -cpuprofile/-memprofile on both
// commands profile the same paths in the field. Every optimisation
// is pinned byte-identical by parity tests — see DESIGN.md §10.
//
// The validation pipeline is a stage DAG: internal/pipeline schedules
// each file through the stages of a Graph the moment its
// prerequisites complete — no barriers between stages — with
// multi-file units ordered by Input.DependsOn and per-stage
// configuration carried by StageSpec (workers, batching, observer).
// WithStages tunes the built-in compile/exec/judge stages per
// Runner, surfaced as -stage-workers on both commands;
// pipeline.Config.Stages does the same for a direct pipeline.Run, and
// NewGraph/RunGraph schedule custom stage DAGs. See DESIGN.md §14.
//
// Every experiment is deterministic given its seeds. See DESIGN.md for
// the system inventory, the Runner/Backend/Experiment architecture,
// and the reproduced result shapes; docs/OPERATIONS.md is the
// operator runbook for the service tier (deployment, priority and
// quota headers, overload semantics, the complete Prometheus metrics
// reference, and run-store maintenance).
package llm4vv

// Package perf is the measurement substrate shared by the benchmark
// suite and the service tier: a concurrency-safe recorder for
// per-stage latency samples with quantile extraction (behind the
// BenchmarkThroughput* suite, DESIGN.md §10), the field-profiling
// hook behind -cpuprofile/-memprofile, and the hand-rolled Prometheus
// text exposition (Prom, prom.go) that the llm4vvd and llm4vv-router
// /metrics endpoints serve. Every exported metric family is declared
// once in the registry (FamilyDef, Families in families.go) that both
// emission sites draw from — docs/OPERATIONS.md documents exactly
// that list, and a test in this package diffs the two. The package
// deliberately has no dependencies on the pipeline or judge packages
// — they expose plain callback hooks (pipeline.StageSpec.Observe)
// and the harness plugs a Recorder in, so production runs without an
// observer pay a single nil check per stage.
package perf

import (
	"sort"
	"sync"
	"time"
)

// Recorder collects duration samples per named stage. The zero value
// is not usable; construct with NewRecorder. All methods are safe for
// concurrent use — stage workers observe from many goroutines.
type Recorder struct {
	mu      sync.Mutex
	samples map[string][]time.Duration
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{samples: map[string][]time.Duration{}}
}

// Observe records one duration sample for a stage.
func (r *Recorder) Observe(stage string, d time.Duration) {
	r.mu.Lock()
	r.samples[stage] = append(r.samples[stage], d)
	r.mu.Unlock()
}

// StageStats is one stage's aggregate view at Snapshot time: the
// sample count plus the p50/p99 latency quantiles the /metrics
// exposition exports. Count is the monotone series Prometheus derives
// stage rates from.
type StageStats struct {
	Stage string
	Count int
	P50   time.Duration
	P99   time.Duration
}

// Snapshot returns the aggregate stats of every recorded stage, sorted
// by stage name — one consistent cut across all stages, safe against
// concurrent Observe calls. The samples are copied under the lock and
// the quantiles computed outside it, so a scrape never blocks stage
// workers for longer than the copy.
func (r *Recorder) Snapshot() []StageStats {
	r.mu.Lock()
	copies := make(map[string][]time.Duration, len(r.samples))
	for stage, samples := range r.samples {
		copies[stage] = append([]time.Duration(nil), samples...)
	}
	r.mu.Unlock()
	out := make([]StageStats, 0, len(copies))
	for stage, samples := range copies {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		out = append(out, StageStats{
			Stage: stage,
			Count: len(samples),
			P50:   nearestRank(samples, 0.50),
			P99:   nearestRank(samples, 0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// nearestRank returns the q-th quantile (0 <= q <= 1) of an already
// sorted sample slice by the nearest-rank method; 0 when it is empty.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ReportQuantiles emits "<stage>-p50-ns" and "<stage>-p99-ns" metrics
// for every recorded stage through report — shaped for
// testing.B.ReportMetric, so a benchmark publishes per-stage latency
// families for whatever stages its pipeline chain actually ran, with
// no hard-coded stage list to fall out of date when the chain changes.
func (r *Recorder) ReportQuantiles(report func(n float64, unit string)) {
	for _, st := range r.Snapshot() {
		report(float64(st.P50), st.Stage+"-p50-ns")
		report(float64(st.P99), st.Stage+"-p99-ns")
	}
}

// Rate converts an item count and an elapsed duration (testing.B's
// own timer) into an items-per-second metric; 0 for a degenerate
// instant run rather than a division by zero.
func Rate(items int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(items) / elapsed.Seconds()
}

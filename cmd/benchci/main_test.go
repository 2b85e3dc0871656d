package main

import (
	"slices"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		key  string
		want metricClass
	}{
		{"BenchmarkTableI/acc%", classPct},
		{"BenchmarkTableI/bias", classBias},
		{"BenchmarkPanelAgreement/kappa", classBias},
		{"BenchmarkThroughputStoreWrite/files/sec", classThroughput},
		{"BenchmarkThroughputStoreWrite/allocs/op", classAlloc},
		{"BenchmarkThroughputPipeline/judge-p99-ns", classReport},
		{"BenchmarkThroughputPipeline/compile-p50-ns", classReport},
	}
	for _, c := range cases {
		if got := classify(c.key); got != c.want {
			t.Errorf("classify(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkTableI-8 	1	123 ns/op	56.71 acc%	0.6338 bias	100 B/op	5 allocs/op
BenchmarkThroughputStoreWrite 	3	57919 ns/op	1120219 files/sec	68 allocs/op
not a benchmark line
BenchmarkBroken 	1	notanumber acc%
PASS
`
	metrics, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTableI/acc%":                    56.71,
		"BenchmarkTableI/bias":                    0.6338,
		"BenchmarkTableI/allocs/op":               5,
		"BenchmarkThroughputStoreWrite/files/sec": 1120219,
		"BenchmarkThroughputStoreWrite/allocs/op": 68,
	}
	if len(metrics) != len(want) {
		t.Fatalf("parsed %d metrics %v, want %d", len(metrics), metrics, len(want))
	}
	for k, v := range want {
		if metrics[k] != v {
			t.Errorf("metrics[%q] = %v, want %v", k, metrics[k], v)
		}
	}
	// ns/op and B/op are machine noise and must not be recorded; the
	// -GOMAXPROCS suffix must be trimmed.
	for k := range metrics {
		if strings.HasSuffix(k, "ns/op") || strings.HasSuffix(k, "B/op") {
			t.Errorf("machine-dependent unit recorded: %s", k)
		}
		if strings.Contains(k, "-8/") {
			t.Errorf("GOMAXPROCS suffix not trimmed: %s", k)
		}
	}
}

func TestGateMetricsClasses(t *testing.T) {
	baseline := map[string]float64{
		"B/acc%":      50,
		"B/bias":      0.5,
		"B/files/sec": 1000,
		"B/allocs/op": 100,
	}
	opts := gateOptions{Gate: "all", TolPct: 2, TolBias: 0.1, ThroughputFactor: 4, AllocFactor: 1.5}

	// All within tolerance: slower but above floor, fewer allocs, tiny
	// accuracy drift.
	ok := map[string]float64{"B/acc%": 51, "B/bias": 0.45, "B/files/sec": 300, "B/allocs/op": 60}
	if failures, checked := gateMetrics(ok, baseline, opts); len(failures) != 0 || checked != 4 {
		t.Fatalf("clean run: failures=%v checked=%d", failures, checked)
	}

	// Each class fails on its own rule.
	bad := map[string]float64{"B/acc%": 53, "B/bias": 0.7, "B/files/sec": 200, "B/allocs/op": 151}
	failures, _ := gateMetrics(bad, baseline, opts)
	if len(failures) != 4 {
		t.Fatalf("want 4 failures, got %v", failures)
	}

	// Throughput gains and alloc drops never fail.
	better := map[string]float64{"B/acc%": 50, "B/bias": 0.5, "B/files/sec": 1e9, "B/allocs/op": 1}
	if failures, _ := gateMetrics(better, baseline, opts); len(failures) != 0 {
		t.Fatalf("improvements must pass, got %v", failures)
	}
}

func TestGateMetricsGateSelection(t *testing.T) {
	baseline := map[string]float64{
		"B/acc%":      50,
		"B/files/sec": 1000,
		"B/allocs/op": 100,
	}
	// accuracy gate: the perf keys are ignored even when missing from
	// the run entirely (the bench job does run them, but their one-shot
	// values must not gate).
	run := map[string]float64{"B/acc%": 50}
	opts := gateOptions{Gate: "accuracy", TolPct: 2, TolBias: 0.1, ThroughputFactor: 4, AllocFactor: 1.5}
	if failures, checked := gateMetrics(run, baseline, opts); len(failures) != 0 || checked != 1 {
		t.Fatalf("accuracy gate: failures=%v checked=%d", failures, checked)
	}
	// perf gate: the accuracy keys are ignored (the perf job runs only
	// the throughput benchmarks), but a missing gated perf key fails.
	perfRun := map[string]float64{"B/files/sec": 900}
	opts.Gate = "perf"
	failures, checked := gateMetrics(perfRun, baseline, opts)
	if checked != 2 {
		t.Fatalf("perf gate checked %d keys, want 2", checked)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") || !strings.Contains(failures[0], "missing") {
		t.Fatalf("perf gate: want one missing-allocs failure, got %v", failures)
	}
}

// TestUngatedNewFollowsGate: a metric missing from the baseline is
// announced only when the selected gate would check its class.
func TestUngatedNewFollowsGate(t *testing.T) {
	baseline := map[string]float64{"B/acc%": 50}
	run := map[string]float64{
		"B/acc%":         50,
		"B/bias":         0.1,
		"B/files/sec":    1000,
		"B/allocs/op":    100,
		"B/judge-p99-ns": 1,
	}
	for _, tc := range []struct {
		gate string
		want []string
	}{
		{"all", []string{"B/allocs/op", "B/bias", "B/files/sec"}},
		{"accuracy", []string{"B/bias"}},
		{"perf", []string{"B/allocs/op", "B/files/sec"}},
	} {
		got := ungatedNew(run, baseline, gateOptions{Gate: tc.gate})
		if !slices.Equal(got, tc.want) {
			t.Errorf("gate=%s: new metrics %v, want %v", tc.gate, got, tc.want)
		}
	}
}

func TestGateMetricsReportOnlyNeverGated(t *testing.T) {
	baseline := map[string]float64{"B/judge-p99-ns": 1}
	run := map[string]float64{}
	for _, g := range []string{"all", "accuracy", "perf"} {
		failures, checked := gateMetrics(run, baseline, gateOptions{Gate: g, TolPct: 2, TolBias: 0.1, ThroughputFactor: 4, AllocFactor: 1.5})
		if len(failures) != 0 || checked != 0 {
			t.Fatalf("gate=%s: report-only key was gated: failures=%v checked=%d", g, failures, checked)
		}
	}
}

func TestMergeBaselinePreservesOtherClasses(t *testing.T) {
	base := map[string]float64{
		"B/acc%":      50,
		"B/files/sec": 1000,
		"B/allocs/op": 100,
	}
	// A perf-gated refresh touches only the perf classes; the stale
	// accuracy value and report-only input stay out of it.
	run := map[string]float64{
		"B/acc%":         60, // must NOT overwrite under gate=perf
		"B/files/sec":    2000,
		"B/allocs/op":    50,
		"B/judge-p99-ns": 123, // report-only: never baselined
	}
	opts := gateOptions{Gate: "perf", TolPct: 2, TolBias: 0.1, ThroughputFactor: 4, AllocFactor: 1.5}
	if refreshed := mergeBaseline(base, run, opts); refreshed != 2 {
		t.Fatalf("refreshed %d keys, want 2", refreshed)
	}
	want := map[string]float64{"B/acc%": 50, "B/files/sec": 2000, "B/allocs/op": 50}
	if len(base) != len(want) {
		t.Fatalf("baseline = %v, want %v", base, want)
	}
	for k, v := range want {
		if base[k] != v {
			t.Errorf("base[%q] = %v, want %v", k, base[k], v)
		}
	}
	// gate=all refreshes everything except report-only keys.
	opts.Gate = "all"
	if refreshed := mergeBaseline(base, run, opts); refreshed != 3 {
		t.Fatalf("gate=all refreshed %d keys, want 3", refreshed)
	}
	if base["B/acc%"] != 60 {
		t.Errorf("gate=all did not refresh accuracy key: %v", base["B/acc%"])
	}
	if _, ok := base["B/judge-p99-ns"]; ok {
		t.Error("report-only key leaked into the baseline")
	}
}

// Command benchci turns `go test -bench` output into a CI gate for
// the reproduced result shapes and for hot-path performance. The
// benchmark harness reports every headline accuracy/bias metric of
// the paper's tables via b.ReportMetric, and the BenchmarkThroughput*
// suite adds files/sec and allocs/op; benchci parses those metrics,
// writes them to a JSON artifact, and compares them against a
// committed baseline, failing when any gated metric drifts beyond its
// tolerance.
//
// Metric classes and their gates:
//
//   - accuracy: units ending in "%" (tolerance -tol-pct, absolute
//     percentage points) and everything else not classified below
//     (tolerance -tol-bias, absolute). Deterministic functions of the
//     experiment seeds — drift is a behaviour change, not noise.
//   - throughput: units ending in "files/sec". Machine-dependent, so
//     gated on a wide ratio band: the gate fails only when the
//     current rate falls below baseline / -tol-throughput-factor.
//     Speedups always pass; regenerate the baseline to ratchet.
//   - alloc: units ending in "allocs/op". Nearly machine-independent
//     (Go version shifts aside); fails when current exceeds
//     baseline * -tol-alloc-factor.
//   - report-only: units ending in "-ns" (the p50/p99 stage latency
//     diagnostics). Written to the artifact, never gated, and never
//     written into a baseline.
//
// -gate selects which classes gate the run: "all" (default),
// "accuracy" (skip perf classes — the bench job, whose -benchtime 1x
// timing is too noisy to gate), or "perf" (gate only throughput and
// alloc — the perf job, which runs only the throughput benchmarks and
// therefore lacks the accuracy keys). Baseline keys outside the
// selected classes are ignored rather than reported missing.
//
// Usage:
//
//	go test -bench . -benchtime 1x -run '^$' | \
//	    benchci -gate accuracy -out BENCH_ci.json -baseline BENCH_baseline.json
//	go test -bench 'BenchmarkThroughput' -benchtime 3x -run '^$' | \
//	    benchci -gate perf -out BENCH_perf.json -baseline BENCH_baseline.json
//	go test -bench . -benchtime 1x -run '^$' | \
//	    benchci -gate accuracy -write-baseline BENCH_baseline.json
//	go test -bench 'BenchmarkThroughput' -benchtime 3x -run '^$' | \
//	    benchci -gate perf -write-baseline BENCH_baseline.json
//
// -write-baseline honours -gate and merges: only keys in the gated
// classes are refreshed, and existing baseline entries outside them
// are preserved. That matters because the committed baseline is
// mixed-cadence — accuracy keys come from the full -benchtime 1x run
// while throughput/alloc keys come from the -benchtime 3x throughput
// run (one-iteration perf numbers are exactly the noise the bench
// job refuses to gate) — so regenerating it is the two commands
// above, in either order.
//
// A gated baseline key absent from the current run fails the gate (a
// table disappeared); a new key not in the baseline is reported but
// passes (a table was added — regenerate the baseline to start gating
// it).
//
// Zero metrics on stdin is always an error: an upstream bench run
// that failed or panicked must not fall through to an empty-input
// success. This guard pairs with pipefail on the CI step (`shell:
// bash`) — either alone leaves a masking window; together a broken
// bench pipeline cannot pass.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricClass partitions metric keys by gating rule.
type metricClass int

const (
	classPct        metricClass = iota // "%" units: absolute tolerance in points
	classBias                          // default: absolute tolerance
	classThroughput                    // files/sec: lower-bound ratio band
	classAlloc                         // allocs/op: upper-bound ratio band
	classReport                        // *-ns diagnostics: artifact-only
)

func classify(key string) metricClass {
	switch {
	case strings.HasSuffix(key, "files/sec"):
		return classThroughput
	case strings.HasSuffix(key, "allocs/op"):
		return classAlloc
	case strings.HasSuffix(key, "-ns"):
		return classReport
	case strings.HasSuffix(key, "%"):
		return classPct
	default:
		return classBias
	}
}

func main() {
	out := flag.String("out", "BENCH_ci.json", "write parsed metrics to this JSON artifact")
	baselinePath := flag.String("baseline", "", "compare metrics against this committed baseline")
	writeBaseline := flag.String("write-baseline", "", "write the parsed metrics as a new baseline and exit")
	tolPct := flag.Float64("tol-pct", 2.0, "allowed drift for %-unit metrics, in percentage points")
	tolBias := flag.Float64("tol-bias", 0.1, "allowed drift for bias metrics")
	tolThroughput := flag.Float64("tol-throughput-factor", 4.0, "files/sec gate fails when current < baseline/factor")
	tolAlloc := flag.Float64("tol-alloc-factor", 1.5, "allocs/op gate fails when current > baseline*factor")
	gate := flag.String("gate", "all", "metric classes to gate: all | accuracy | perf")
	flag.Parse()

	switch *gate {
	case "all", "accuracy", "perf":
	default:
		fail(fmt.Errorf("unknown -gate %q (want all, accuracy, or perf)", *gate))
	}

	metrics, err := parseBench(os.Stdin)
	fail(err)
	if len(metrics) == 0 {
		fail(fmt.Errorf("no benchmark metrics found on stdin (run `go test -bench . -benchtime 1x -run '^$'`)"))
	}

	opts := gateOptions{
		Gate:             *gate,
		TolPct:           *tolPct,
		TolBias:          *tolBias,
		ThroughputFactor: *tolThroughput,
		AllocFactor:      *tolAlloc,
	}

	if *writeBaseline != "" {
		// Merge into the existing baseline when there is one. Only a
		// genuinely missing file may start from empty — any other read
		// failure must abort, or a transient error would silently strip
		// every other-class key (and gateMetrics iterates baseline keys,
		// so the next run would pass vacuously un-gated).
		base := map[string]float64{}
		data, err := os.ReadFile(*writeBaseline)
		switch {
		case err == nil:
			fail(json.Unmarshal(data, &base))
		case errors.Is(err, fs.ErrNotExist):
		default:
			fail(err)
		}
		refreshed := mergeBaseline(base, metrics, opts)
		fail(writeJSON(*writeBaseline, base))
		fmt.Printf("benchci: refreshed %d of %d metrics in %s (gate=%s)\n", refreshed, len(base), *writeBaseline, *gate)
		return
	}

	fail(writeJSON(*out, metrics))
	fmt.Printf("benchci: wrote %d metrics to %s\n", len(metrics), *out)
	if *baselinePath == "" {
		return
	}

	data, err := os.ReadFile(*baselinePath)
	fail(err)
	var baseline map[string]float64
	fail(json.Unmarshal(data, &baseline))

	failures, checked := gateMetrics(metrics, baseline, opts)
	for _, k := range ungatedNew(metrics, baseline, opts) {
		fmt.Printf("benchci: new metric %s = %.4f (not in baseline; regenerate to gate it)\n", k, metrics[k])
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchci: %d metric(s) drifted from %s:\n", len(failures), *baselinePath)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchci: all %d gated baseline metrics within tolerance (gate=%s)\n", checked, *gate)
}

// gateOptions carries the gating tolerances and class selection.
type gateOptions struct {
	Gate             string  // all | accuracy | perf
	TolPct           float64 // absolute points for "%" units
	TolBias          float64 // absolute for bias units
	ThroughputFactor float64 // files/sec floor = baseline / factor
	AllocFactor      float64 // allocs/op ceiling = baseline * factor
}

// gated reports whether a metric class participates under the
// selected gate.
func (o gateOptions) gated(c metricClass) bool {
	switch c {
	case classReport:
		return false
	case classThroughput, classAlloc:
		return o.Gate != "accuracy"
	default:
		return o.Gate != "perf"
	}
}

// mergeBaseline refreshes base in place from a run's metrics: only
// keys in the gated classes are written (report-only keys never are),
// existing entries outside them are preserved — the committed
// baseline mixes cadences, accuracy from the full 1x run and perf
// from the 3x throughput run. Returns how many keys were refreshed.
func mergeBaseline(base, metrics map[string]float64, opts gateOptions) (refreshed int) {
	for k, v := range metrics {
		if opts.gated(classify(k)) {
			base[k] = v
			refreshed++
		}
	}
	return refreshed
}

// ungatedNew lists, sorted, the run's metrics that the selected gate
// would check but the baseline lacks: the keys a regenerated baseline
// would start gating. Keys of classes the gate ignores are not news.
func ungatedNew(metrics, baseline map[string]float64, opts gateOptions) []string {
	var keys []string
	for k := range metrics {
		if _, ok := baseline[k]; !ok && opts.gated(classify(k)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// gateMetrics compares a run's metrics against the baseline under the
// selected gate, returning human-readable failures (deterministic
// order: sorted keys) and how many baseline keys were checked.
func gateMetrics(metrics, baseline map[string]float64, opts gateOptions) (failures []string, checked int) {
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		class := classify(k)
		if !opts.gated(class) {
			continue
		}
		checked++
		want := baseline[k]
		got, ok := metrics[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run (baseline %.4f)", k, want))
			continue
		}
		switch class {
		case classThroughput:
			if floor := want / opts.ThroughputFactor; got < floor {
				failures = append(failures, fmt.Sprintf("%s: %.1f below throughput floor %.1f (baseline %.1f / factor %.2f)", k, got, floor, want, opts.ThroughputFactor))
			}
		case classAlloc:
			if ceil := want * opts.AllocFactor; got > ceil {
				failures = append(failures, fmt.Sprintf("%s: %.1f above alloc ceiling %.1f (baseline %.1f * factor %.2f)", k, got, ceil, want, opts.AllocFactor))
			}
		default:
			tol := opts.TolBias
			if class == classPct {
				tol = opts.TolPct
			}
			if drift := math.Abs(got - want); drift > tol {
				failures = append(failures, fmt.Sprintf("%s: %.4f drifted %.4f from baseline %.4f (tolerance %.4f)", k, got, drift, want, tol))
			}
		}
	}
	return failures, checked
}

// parseBench extracts the custom (value, unit) metric pairs from
// `go test -bench` output lines, keying them as "BenchmarkName/unit".
// A benchmark result line is: name, iteration count, then pairs.
func parseBench(f io.Reader) (map[string]float64, error) {
	metrics := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Echo the raw output so the CI log keeps the full table.
		fmt.Println(line)
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // malformed pair; stop reading this line
			}
			unit := fields[i+1]
			if skipUnit(unit) {
				continue
			}
			metrics[name+"/"+unit] = val
		}
	}
	return metrics, sc.Err()
}

// trimProcSuffix drops the -GOMAXPROCS suffix so keys are stable
// across runner shapes.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// skipUnit filters the units that are never meaningful to record:
// wall-clock and byte counts are machine-dependent noise. allocs/op
// stays — it is deterministic enough to gate on a ratio band, and the
// throughput suite's alloc discipline is exactly what the perf gate
// protects.
func skipUnit(unit string) bool {
	switch unit {
	case "ns/op", "B/op", "MB/s":
		return true
	}
	return false
}

func writeJSON(path string, metrics map[string]float64) error {
	data, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchci:", err)
		os.Exit(1)
	}
}

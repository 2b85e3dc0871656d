// Command perfbench is the repository benchmark. It drives one
// workload from one process against the system's public surfaces —
// the llm4vv.Runner with its backend registry, and the daemon wire
// protocol served by internal/server replicas behind an
// internal/fleet router, hosted in-process on loopback — and prints
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run measures the workload untraced and
// then traced by the benchmark's own decorators, and prints the
// per-layer metrics. README.md lists the workloads, every metric, the
// end-to-end metric each layer metric should move, and the known
// blind spots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/rng"
)

// slots is the concurrency the benchmark allows itself: the machine it
// was defined on has 2 CPUs, so the generator never has more than 2
// requests in flight across all hosts, and sweeps run 2 workers.
const slots = 2

// setupRepeats is how many times a run builds its system; setup_s is
// the median, and the last system built is the one measured.
const setupRepeats = 9

// buildDir holds everything a run leaves behind: the binary run.sh
// builds, its build cache, and each run's scratch stores.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir is a scratch directory for run stores, removed at exit.
	dir string
}

// corpusSeed derives a deterministic corpus seed from the run seed and
// a label naming the use ("warm/0/OpenACC", "measure/3/OpenMP"), so
// warm-up and measured inputs never coincide and every seed gives its
// own inputs.
func (c config) corpusSeed(label string) uint64 {
	return rng.New(c.seed).Split(label).Uint64()
}

// warmup is the configuration warm-up inputs derive from. It ignores
// --seed, so set-up does the same work in every run and setup_s
// measures set-up rather than which corpus a seed drew; the "warm"
// labels keep its inputs disjoint from the measured ones.
var warmup = config{seed: 0x5e7}

var workloads = map[string]func(config) (*report, error){
	"sweep-local":       runSweepLocal,
	"panel-fleet":       runPanelFleet,
	"serve-interactive": runServeInteractive,
}

func main() {
	name := flag.String("workload", "", "workload: sweep-local, panel-fleet or serve-interactive")
	seed := flag.Uint64("seed", 1, "workload seed: drives corpus seeds, arrival times and the repeat pattern")
	seconds := flag.Float64("seconds", 20, "length of the measured phase at the throughput the benchmark was calibrated on")
	traced := flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fail(err)
	}
	rep, err := run(config{seed: *seed, seconds: *seconds, trace: *traced == 1, dir: dir})
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// liveHeapMB forces two collections — the second empties the pools
// the first only moved to their victim caches — and reports the live
// heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetup builds a system setupRepeats times, closing all but the
// last, and returns the last with the median build time in seconds.
// Each build starts after a forced collection, so none pays for the
// garbage the system closed before it left behind.
func timeSetup[T any](build func() (T, error), closeFn func(T) error) (T, float64, error) {
	var sys T
	var times []float64
	for i := range setupRepeats {
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := closeFn(s); err != nil {
				return sys, 0, err
			}
			continue
		}
		sys = s
	}
	return sys, median(times), nil
}

// okPct is the share of attempted operations that succeeded and passed
// every check.
func okPct(attempted, failed int64) float64 {
	return 100 * (1 - ratio(float64(failed), float64(attempted)))
}

package main

import (
	"fmt"
	"time"

	llm4vv "repro"
	"repro/internal/judge"
	"repro/internal/server"
	"repro/internal/store"
)

// layerUnits lists every per-layer metric with its unit. Every traced
// run prints all of them: a layer a workload never reaches reads 0,
// which is the prediction README.md records for it.
var layerUnits = []struct{ name, unit string }{
	{"compiler.us_per_file", "us"},
	{"machine.us_per_file", "us"},
	{"machine.p99_ms", "ms"},
	{"pipeline.idle_pct", "%"},
	{"pipeline.judge_calls_per_file", "count"},
	{"judge.self_us_per_file", "us"},
	{"judge.batch_size", "count"},
	{"model.us_per_prompt", "us"},
	{"model.prompts_per_file", "count"},
	{"ensemble.member_calls_per_file", "count"},
	{"ensemble.self_us_per_file", "us"},
	{"remote.wire_us_per_call", "us"},
	{"remote.retries", "count"},
	{"fleet.self_us_per_req", "us"},
	{"fleet.max_replica_share_pct", "%"},
	{"fleet.spills", "count"},
	{"fleet.shed", "count"},
	{"server.self_us_per_req", "us"},
	{"server.gather_delay_us", "us"},
	{"server.batch_size", "count"},
	{"server.store_hit_pct", "%"},
	{"store.put_us_per_record", "us"},
	{"store.flush_us", "us"},
	{"store.get_us", "us"},
	{"perf.scrape_ms", "ms"},
	{"perf.retained_b_per_req", "B"},
	{"trace.overhead_pct", "%"},
	{"harness.overhead_pct", "%"},
	{"harness.unattributed_pct", "%"},
	{"harness.late_p99_ms", "ms"},
	{"harness.samples", "count"},
}

// layerMetrics collects one traced run's per-layer values.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, l := range layerUnits {
		m[l.name] = 0
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m[name] = v
}

func (m layerMetrics) into(rep *report) {
	for _, l := range layerUnits {
		rep.set(l.name, m[l.name], l.unit)
	}
}

// attribution is a traced phase's time accounting.
type attribution struct {
	self map[string]int64 // layer -> self time
	idle int64            // slot time with no root span running
	wall int64            // the timed intervals' total length
}

// attribute computes self times over the phase's timed intervals, and
// idle slot time when isRoot selects the units of work an open loop's
// slots carry. A closed loop always has work waiting, so its isRoot is
// nil and slot time no span covers stays unattributed.
func attribute(spans []span, intervals [][2]int64, implicit map[string]string, isRoot func(span) bool) attribution {
	a := attribution{self: selfTimes(spans, implicit)}
	var roots []span
	if isRoot != nil {
		for _, s := range spans {
			if isRoot(s) {
				roots = append(roots, s)
			}
		}
	}
	for _, iv := range intervals {
		a.wall += iv[1] - iv[0]
		if isRoot != nil {
			a.idle += idleTime(roots, slots, iv[0], iv[1])
		}
	}
	return a
}

// unattributedPct is the share of the phase's slot time (wall × slots)
// that neither a layer's self time nor idle slot time accounts for.
// Positive values are worker time no span covers (in a sweep, the
// Runner's own code between calls); negative values mean spans
// overlapped beyond the slot count: fan-out inside a request (a batch
// split over two replicas, a panel's seats), or more runnable
// goroutines than CPUs, whose spans then include run-queue waits.
func (a attribution) unattributedPct() float64 {
	total := float64(slots * a.wall)
	attributed := float64(a.idle)
	for _, v := range a.self {
		attributed += float64(v)
	}
	return 100 * ratio(total-attributed, total)
}

// perCall is a layer's mean self time per span, in microseconds.
func (a attribution) perCall(spans []span, layer string) float64 {
	return ratio(float64(a.self[layer])/1e3, float64(len(spansOf(spans, layer))))
}

// fleetCounters snapshots the serving tier's counters.
type fleetCounters struct {
	srv            server.Stats
	spills, shed   int64
	retries        int64
	replicaPrompts []int64
}

func (f *fleetHost) counters(clientRetries int64) fleetCounters {
	c := fleetCounters{srv: f.serverStats(), spills: f.router.Stats().Spills, shed: f.shed(), retries: f.router.Retries() + clientRetries}
	for _, st := range f.router.Replicas() {
		c.replicaPrompts = append(c.replicaPrompts, st.Prompts)
	}
	return c
}

// fleetLayers sets the serving-tier metrics of a traced fleet phase:
// self times from the spans, counters from the difference between the
// snapshots taken before and after it.
func fleetLayers(m layerMetrics, spans []span, a attribution, before, after fleetCounters, files float64, gatherUS []float64) {
	modelNS, prompts := totalDur(spansOf(spans, "model"))
	m.set("model.us_per_prompt", ratio(float64(modelNS)/1e3, float64(prompts)))
	m.set("model.prompts_per_file", ratio(float64(prompts), files))
	m.set("remote.wire_us_per_call", a.perCall(spans, "remote"))
	m.set("remote.retries", float64(after.retries-before.retries))
	m.set("fleet.self_us_per_req", a.perCall(spans, "fleet"))
	var total, most int64
	for i := range after.replicaPrompts {
		d := after.replicaPrompts[i] - before.replicaPrompts[i]
		total += d
		most = max(most, d)
	}
	m.set("fleet.max_replica_share_pct", 100*ratio(float64(most), float64(total)))
	m.set("fleet.spills", float64(after.spills-before.spills))
	m.set("fleet.shed", float64(after.shed-before.shed))
	m.set("server.self_us_per_req", a.perCall(spans, "server"))
	m.set("server.gather_delay_us", ratio(sum(gatherUS), float64(len(gatherUS))))
	endpointPrompts := float64(after.srv.EndpointPrompts - before.srv.EndpointPrompts)
	hits := float64(after.srv.StoreHits - before.srv.StoreHits)
	m.set("server.batch_size", ratio(endpointPrompts, float64(after.srv.EndpointCalls-before.srv.EndpointCalls)))
	m.set("server.store_hit_pct", 100*ratio(hits, hits+endpointPrompts))
	m.set("harness.unattributed_pct", a.unattributedPct())
}

// isGenSpan selects the generator's own calls: the open loop's roots.
func isGenSpan(s span) bool { return s.host == "gen" }

// storeCost is the direct pass's per-operation store cost.
type storeCost struct {
	putUS, flushUS, getUS float64
}

// directStore replays records into a fresh store the way a replica
// writes its dedup records — a Put per record and a Flush per resolved
// batch of flushEvery records — then reads every record back by key,
// timing each call.
func directStore(path string, recs []store.Record, flushEvery int) (storeCost, error) {
	st, err := store.Open(path)
	if err != nil {
		return storeCost{}, err
	}
	flushEvery = max(1, flushEvery)
	var put, flush, get time.Duration
	flushes := 0
	for i, rec := range recs {
		start := time.Now()
		if err := st.Put(rec); err != nil {
			st.Close()
			return storeCost{}, err
		}
		put += time.Since(start)
		if (i+1)%flushEvery == 0 || i == len(recs)-1 {
			start = time.Now()
			if err := st.Flush(); err != nil {
				st.Close()
				return storeCost{}, err
			}
			flush += time.Since(start)
			flushes++
		}
	}
	for _, rec := range recs {
		start := time.Now()
		if _, ok := st.Get(rec.Key()); !ok {
			st.Close()
			return storeCost{}, fmt.Errorf("direct store pass: record %s not found", rec.FileHash)
		}
		get += time.Since(start)
	}
	if err := st.Close(); err != nil {
		return storeCost{}, err
	}
	n := float64(len(recs))
	return storeCost{
		putUS:   ratio(float64(put)/1e3, n),
		flushUS: ratio(float64(flush)/1e3, float64(flushes)),
		getUS:   ratio(float64(get)/1e3, n),
	}, nil
}

func (c storeCost) into(m layerMetrics) {
	m.set("store.put_us_per_record", c.putUS)
	m.set("store.flush_us", c.flushUS)
	m.set("store.get_us", c.getUS)
}

// dedupPhase is the run-store phase the daemon records its dedup
// completions under (docs/STORE.md).
const dedupPhase = "serve/completions"

// dedupRecords builds the dedup records a replica writes for answered
// prompts.
func dedupRecords(backend string, prompts, responses []string) []store.Record {
	recs := make([]store.Record, len(prompts))
	for i, p := range prompts {
		recs[i] = store.Record{
			Experiment: dedupPhase, Backend: backend, Seed: llm4vv.DefaultModelSeed,
			FileHash: judge.KeyOf(p).Hex(), JudgeRan: true, Response: responses[i],
		}
	}
	return recs
}

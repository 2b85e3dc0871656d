package llm4vv

// Trace continuity across fleet failover: a sweep routed over three
// replicas with one dying mid-run must record, under a single trace
// ID, the failed routing attempt, the failover hop that replaced it,
// and the eventual success — the observability contract that makes a
// failover diagnosable after the fact (DESIGN.md §13).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// attrOf returns the named attribute's value, "" when absent.
func attrOf(sp trace.SpanRecord, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestFleetFailoverTraceContinuity(t *testing.T) {
	// Same victim shape as TestFleetReplicaKillMidSweep: the first
	// completion succeeds, every later one answers 503, so shards that
	// hash to the victim exercise the request-path failover.
	var completions atomic.Int64
	kill := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/complete") {
				if completions.Add(1) > 1 {
					http.Error(w, "replica killed mid-sweep", http.StatusServiceUnavailable)
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	addrs := startFleetReplica(t, kill) + "," + startFleetReplica(t, nil) + "," + startFleetReplica(t, nil)

	var buf bytes.Buffer // tracer serialises writes under its own lock
	tracer := trace.New(trace.WithWriter(&buf), trace.WithProcess("test-worker"))
	fr := mustRunner(t, WithBackend("fleet:"+addrs), judgeBatch(2), WithTracer(tracer))
	t.Cleanup(func() { fr.Close() })
	params := ExperimentParams{Dialects: []spec.Dialect{spec.OpenACC}, Scale: 16}
	if _, err := RunExperiment(context.Background(), fr, "part1", params); err != nil {
		t.Fatalf("sweep failed after replica kill: %v", err)
	}
	if completions.Load() <= 1 {
		t.Fatal("killed replica never refused a request; the kill did not land mid-sweep")
	}

	// Reassemble traces from the JSONL fragments. The fleet Router ran
	// in this process, so the worker's file roots, batch carriers, and
	// routing attempts all land in one sink.
	spansByTrace := map[string][]trace.SpanRecord{}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec trace.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad trace fragment %q: %v", line, err)
		}
		spansByTrace[rec.Trace] = append(spansByTrace[rec.Trace], rec.Spans...)
	}
	if len(spansByTrace) == 0 {
		t.Fatal("sweep recorded no traces")
	}

	// Hunt for one trace carrying the whole failover story: a file
	// root, its judge.batch carrier, a failed fleet.attempt, and a
	// later-hop fleet.attempt that succeeded.
	found := false
	for id, spans := range spansByTrace {
		byID := map[string]trace.SpanRecord{}
		var root, failed, recovered *trace.SpanRecord
		hasCarrier := false
		for i, sp := range spans {
			byID[sp.ID] = sp
			switch sp.Name {
			case "file":
				if sp.Parent == "" {
					root = &spans[i]
				}
			case "judge.batch":
				hasCarrier = true
			case "fleet.attempt":
				if attrOf(sp, "error") != "" {
					failed = &spans[i]
				} else if failed != nil && attrOf(sp, "hop") > attrOf(*failed, "hop") {
					recovered = &spans[i]
				}
			}
		}
		if root == nil || !hasCarrier || failed == nil || recovered == nil {
			continue
		}
		// Both attempts must hang off the trace's root via parent
		// links — a broken chain would render as orphans.
		for _, sp := range []*trace.SpanRecord{failed, recovered} {
			cur := *sp
			for cur.Parent != "" {
				next, ok := byID[cur.Parent]
				if !ok {
					t.Fatalf("trace %s: span %s (%s) has parent %s outside the trace", id, cur.ID, cur.Name, cur.Parent)
				}
				cur = next
			}
			if cur.ID != root.ID {
				t.Fatalf("trace %s: span %s (%s) does not chain to the file root", id, sp.ID, sp.Name)
			}
		}
		found = true
		break
	}
	if !found {
		t.Fatal("no trace recorded a failed fleet.attempt plus a higher-hop successful retry under one trace ID")
	}
}

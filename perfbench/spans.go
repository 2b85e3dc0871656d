package main

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark's
// own decorators around the program's public interfaces. Spans live in
// memory until the traced phase ends.
type span struct {
	id, parent int64
	layer      string
	// host names the process-like unit the call ran in ("gen",
	// "router", "replica-0", "local"): spans whose parent could not be
	// carried through a context or header are linked only to a
	// containing span on the same host.
	host       string
	start, end int64 // nanoseconds since the recorder's epoch
	n          int   // prompts (or files) the call handled
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects spans. A nil *recorder records nothing, so the
// untraced build of a workload shares its code with the traced one.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span and returns its id, its start, and a context
// carrying the id so calls made under it can name it as their parent.
func (r *recorder) open(ctx context.Context) (int64, int64, context.Context) {
	id := r.next.Add(1)
	return id, r.now(), context.WithValue(ctx, spanKey{}, id)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (a warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanKey struct{}

// spanHeader carries a span id across an HTTP hop, from the
// benchmark's RoundTripper to its handler wrapper on the far side.
const spanHeader = "X-Perfbench-Span"

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

func formatID(id int64) string { return strconv.FormatInt(id, 10) }

func parseID(s string) int64 {
	id, _ := strconv.ParseInt(s, 10, 64)
	return id
}

// selfTimes sums each layer's self time: every span's duration minus
// the part of its interval that the union of its children covers.
// Children are the spans naming it as parent; a span with no parent
// whose layer has an entry in implicit (child layer -> parent layer)
// is a child of every span of that parent layer, on the same host,
// whose interval contains it. That is how calls made on a goroutine
// the caller's context never reached (the daemon's micro-batch flush)
// still attach to the requests that waited on them.
func selfTimes(spans []span, implicit map[string]string) map[string]int64 {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	children := make([][]int, len(spans))
	// Parents by (layer, host), sorted by start, for containment.
	type lh struct{ layer, host string }
	groups := map[lh][]int{}
	for i, s := range spans {
		groups[lh{s.layer, s.host}] = append(groups[lh{s.layer, s.host}], i)
	}
	for _, g := range groups {
		sort.Slice(g, func(a, b int) bool { return spans[g[a]].start < spans[g[b]].start })
	}
	for i, s := range spans {
		if s.parent != 0 {
			if p, ok := byID[s.parent]; ok {
				children[p] = append(children[p], i)
			}
			continue
		}
		pl, ok := implicit[s.layer]
		if !ok {
			continue
		}
		for _, p := range groups[lh{pl, s.host}] {
			if spans[p].start > s.start {
				break
			}
			if spans[p].end >= s.end {
				children[p] = append(children[p], i)
			}
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.layer] += s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the part of s's interval that the union of
// the given child spans covers. Overlapping children (a panel's
// members, a batch fanned out to two replicas) count once.
func covered(s span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// idleTime integrates max(0, slots - active(t)) over [from, to), where
// active counts the given root spans in flight at t: the slot time in
// which fewer than slots units of work were running.
func idleTime(roots []span, slots int, from, to int64) int64 {
	type ev struct {
		t     int64
		delta int
	}
	evs := make([]ev, 0, 2*len(roots))
	for _, s := range roots {
		a, b := s.start, s.end
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			evs = append(evs, ev{a, 1}, ev{b, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	var idle int64
	active, last := 0, from
	for _, e := range evs {
		if free := slots - active; free > 0 {
			idle += int64(free) * (e.t - last)
		}
		active += e.delta
		last = e.t
	}
	if free := slots - active; free > 0 {
		idle += int64(free) * (to - last)
	}
	return idle
}

// spansOf returns the spans of one layer.
func spansOf(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.layer == layer {
			out = append(out, s)
		}
	}
	return out
}

func totalDur(spans []span) (ns int64, n int) {
	for _, s := range spans {
		ns += s.dur()
		n += s.n
	}
	return ns, n
}

// Package store implements the persistent, resumable run store: a
// segmented log of per-file judging records keyed by (experiment,
// backend, seed, file content hash). Large multi-backend sweeps write
// every sealed verdict through the store as it lands, so an
// interrupted run can resume by loading prior records and judging
// only the files that never completed — identical content under an
// identical configuration is never judged twice.
//
// The store is one active segment plus zero or more sealed segments
// (docs/STORE.md has the full design):
//
//   - The active segment is the JSONL file at the store path: one
//     JSON object per line, append-only, fully indexed in memory.
//     Appends are write-behind — records land in a buffered writer
//     and reach the OS when the buffer fills, on an explicit Flush
//     (a Runner checkpoints after every judge batch's worth of
//     records and at phase end), and on Close.
//     A crash loses at most the un-flushed tail plus at most one torn
//     final line, and Open tolerates exactly that: unparsable or
//     incomplete lines are counted (Dropped) and skipped, recovery is
//     "reopen and keep going", and the lost tail is simply re-judged.
//   - When the active segment outgrows Options.SealBytes it is sealed:
//     its live records are written, sorted by key and deduplicated, to
//     an immutable "<path>.seg-NNNNNN" sibling (fsynced, renamed into
//     place, directory fsynced), and the active file restarts empty.
//     Sealed segments are served through a per-segment Bloom filter
//     and a sparse in-memory key index, so Get and Has on a store of
//     millions of records are a binary search plus one bounded block
//     read — never a scan of the world — and memory stays bounded by
//     the active segment plus the sparse indexes.
//   - Background compaction merges all sealed segments into one when
//     their count crosses Options.MergeThreshold, without touching the
//     active segment. Compact is the same merge run synchronously
//     after a seal: it leaves one canonical sealed segment and an
//     empty active file.
//
// Newer always wins: the active segment overrides sealed segments, and
// a higher-numbered segment overrides a lower one — so last-write-wins
// resolution is identical to replaying the historical append order.
//
// A pre-segmentation store is already a valid active segment, so
// migration is automatic: Open on a legacy single-file store simply
// adopts it, and seals it on the spot when it exceeds the seal
// threshold. Nothing about the file format changed.
package store

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// Key identifies one judging result: the same file content judged
// under the same experiment phase, backend, and seed always lands on
// the same key, so reruns and resumed runs dedupe naturally.
type Key struct {
	Experiment string
	Backend    string
	Seed       uint64
	FileHash   string
}

// Record is one stored per-file result: the key fields plus the stage
// outcomes a run needs to reconstruct the file's verdict without
// re-doing any work. Judge-only phases fill Verdict; pipeline phases
// fill the stage flags too.
type Record struct {
	Experiment string `json:"experiment"`
	Backend    string `json:"backend"`
	Seed       uint64 `json:"seed"`
	FileHash   string `json:"file_hash"`
	Name       string `json:"name,omitempty"`

	CompileRan bool   `json:"compile_ran,omitempty"`
	CompileOK  bool   `json:"compile_ok,omitempty"`
	ExecRan    bool   `json:"exec_ran,omitempty"`
	ExecOK     bool   `json:"exec_ok,omitempty"`
	JudgeRan   bool   `json:"judge_ran,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	Valid      bool   `json:"valid,omitempty"`

	// Response holds the raw completion text for records that cache a
	// whole endpoint completion rather than a sealed verdict — the
	// judging service stores one such record per unique prompt (keyed
	// by prompt hash) so identical requests from many workers resolve
	// to one completion.
	Response string `json:"response,omitempty"`

	// Votes holds the per-member panel votes for records written by
	// ensemble (panel) phases, in the canonical encoding of
	// internal/ensemble.EncodeVotes ("strategy member=verdict ...",
	// panel order). It is what lets a resumed panel run reproduce its
	// agreement metrics byte-identically without re-judging a file.
	Votes string `json:"votes,omitempty"`

	// Unix is an optional caller-set record timestamp (Unix seconds)
	// for time-windowed Scan filters. The store never stamps it
	// itself: experiment records must stay deterministic functions of
	// their inputs so identical re-puts dedupe and replayed runs never
	// grow the log.
	Unix int64 `json:"unix,omitempty"`
}

// Key returns the record's identity.
func (r Record) Key() Key {
	return Key{Experiment: r.Experiment, Backend: r.Backend, Seed: r.Seed, FileHash: r.FileHash}
}

// HashSource returns the content hash used in keys: hex SHA-256 of
// the file's source text.
func HashSource(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// writeBufSize is the write-behind buffer: appends accumulate here
// and reach the OS one buffer — not one record — per syscall. At
// typical record sizes (~200 bytes) that batches a few hundred
// appends per write.
const writeBufSize = 64 * 1024

// DefaultSealBytes is the active-segment size that triggers a seal
// when Options.SealBytes is zero: large enough that short experiment
// runs stay a plain single file, small enough that a fleet writing
// millions of records keeps its in-memory active index bounded.
const DefaultSealBytes = 8 << 20

// DefaultMergeThreshold is the sealed-segment count that triggers a
// background merge when Options.MergeThreshold is zero.
const DefaultMergeThreshold = 4

// Options tunes the segmented log. The zero value gives the
// production defaults; tests shrink the thresholds to exercise
// sealing and merging on small stores.
type Options struct {
	// SealBytes is the active-segment size that triggers a seal.
	// 0 means DefaultSealBytes; negative disables auto-sealing (the
	// pre-segmentation single-file behaviour).
	SealBytes int64
	// SparseInterval is the sparse-index granularity: one in-memory
	// index entry per this many segment records, bounding a point
	// lookup's block read. 0 means 64.
	SparseInterval int
	// MergeThreshold is the sealed-segment count that triggers an
	// incremental background merge of all sealed segments into one.
	// 0 means DefaultMergeThreshold; negative disables merging.
	MergeThreshold int
	// Tracer, when set, records each seal and background merge as a
	// one-span trace ("store.seal" / "store.merge", Compact included) —
	// maintenance acts have no caller to parent under, but they compete
	// for the same disk, so a sweep's slow tail often points here. Nil
	// disables.
	Tracer *trace.Tracer
	// FaultHook, when set, is consulted before low-level file
	// operations — "write" (active-segment appends and flushes,
	// segment-writer output), "sync" (fsync of a new segment file),
	// "rename" (the atomic publish of a new segment) — and a non-nil
	// return fails that operation as if the disk had. The chaos suite
	// and the daemons' -fault flag inject deterministic I/O failure
	// through it (see internal/fault.Hook); production leaves it nil.
	FaultHook func(op string) error
}

func (o Options) normalized() Options {
	if o.SealBytes == 0 {
		o.SealBytes = DefaultSealBytes
	}
	if o.SparseInterval <= 0 {
		o.SparseInterval = defaultSparseInterval
	}
	if o.MergeThreshold == 0 {
		o.MergeThreshold = DefaultMergeThreshold
	}
	return o
}

// Store is an open run store. It is safe for concurrent use; one
// Store can absorb sealed results from every worker of a sharded run.
type Store struct {
	mu   sync.Mutex
	path string
	opts Options

	// Active segment: the append-only JSONL file at path, indexed in
	// full by the active map.
	f           *os.File
	w           *bufio.Writer // write-behind append buffer over f
	enc         *json.Encoder // bound to w via a counting writer
	scratch     *Record       // reused Encode argument; a plain rec would box into any per call
	active      map[Key]Record
	activeBytes int64 // bytes encoded into the active segment (buffered included)
	activeLines int   // physical lines in the active file (valid, superseded, and corrupt)

	// Sealed segments, oldest first (ascending seq).
	segs     []*segment
	segLines int    // physical record lines across sealed segments
	nextSeq  uint64 // sequence number the next seal will use

	distinct int // exact distinct keys across active + sealed segments
	dropped  int
	werr     error // first append failure, surfaced by Close

	// Background merge coordination: merging guards the one in-flight
	// merge; mergeCond (on mu) wakes Compact/Close waiters when it
	// finishes; mergeErr keeps the last failure for Stats.
	merging   bool
	mergeCond *sync.Cond
	mergeWG   sync.WaitGroup
	mergeErr  error
}

// countingWriter tracks bytes encoded into the active segment so the
// seal threshold fires on logical size, buffered bytes included.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	*cw.n += int64(n)
	return n, err
}

// Open opens the store at path with default Options, creating it when
// absent. See OpenWith.
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// OpenWith opens the store at path (creating it when absent), loads
// the active segment into memory, indexes every sealed segment, and
// readies the active file for appends. Unparsable lines — a torn
// final line from an interrupted run, or garbage from outside
// interference — are skipped and counted, never fatal; later records
// on valid lines still load. For duplicate keys the newest record
// wins: active over sealed, higher segment over lower, later line
// over earlier, matching append order.
//
// Leftovers of interrupted seals and merges (".tmp" siblings) are
// removed, and an active segment already past the seal threshold — a
// legacy single-file store being migrated, or the residue of a crash
// between a seal's rename and its truncate — is sealed immediately.
func OpenWith(path string, opts Options) (*Store, error) {
	opts = opts.normalized()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{path: path, opts: opts, f: f, active: map[Key]Record{}}
	s.mergeCond = sync.NewCond(&s.mu)
	fail := func(err error) (*Store, error) {
		f.Close()
		for _, sg := range s.segs {
			sg.f.Close()
		}
		return nil, err
	}

	// Sealed segments first: tmp leftovers are cleaned, survivors
	// opened oldest-first.
	segPaths, segSeqs, err := listSegments(path)
	if err != nil {
		return fail(err)
	}
	s.nextSeq = 1
	for i, p := range segPaths {
		sg, err := openSegment(p, segSeqs[i])
		if err != nil {
			return fail(err)
		}
		s.segs = append(s.segs, sg)
		if segSeqs[i] >= s.nextSeq {
			s.nextSeq = segSeqs[i] + 1
		}
	}

	// Load the active segment. Read with a plain buffered reader, not
	// bufio.Scanner: Scanner enforces a maximum token size (64KiB by
	// default), and a record whose response or transcript outgrew
	// whatever cap was chosen would not degrade to one dropped line —
	// ErrTooLong aborts the whole scan and the store would refuse to
	// open. readLine has no line-length ceiling, so arbitrarily large
	// records round-trip and corruption stays line-local.
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, rerr := readLine(r)
		if len(line) > 0 {
			s.activeLines++
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil || rec.FileHash == "" || rec.Experiment == "" {
				s.dropped++
			} else {
				s.active[rec.Key()] = rec
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fail(fmt.Errorf("store: reading %s: %w", path, rerr))
		}
	}

	// One merge pass over every segment plus the active index does
	// double duty: it builds each segment's sparse index and Bloom
	// filter, and computes the exact distinct-key count in O(streams)
	// memory (every stream is sorted, so duplicates meet at the merge
	// head).
	segStreams := make([]*segStream, len(s.segs))
	streams := make([]stream, 0, len(s.segs)+1)
	for i, sg := range s.segs {
		ss, err := newSegStream(sg, 0, true, opts.SparseInterval)
		if err != nil {
			return fail(err)
		}
		segStreams[i] = ss
		streams = append(streams, ss)
	}
	streams = append(streams, newMemStream(s.active))
	err = mergeStreams(streams, func(Record, int, []int) bool {
		s.distinct++
		return true
	})
	if err != nil {
		return fail(err)
	}
	for _, ss := range segStreams {
		s.dropped += ss.dropped
		s.segLines += ss.sg.count
	}

	// Append from the true end regardless of where scanning stopped —
	// and if the file ends in a torn line (no final newline, the crash
	// signature of an interrupted append), terminate it first so the
	// next record starts on its own line instead of merging into the
	// garbage.
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fail(err)
	}
	if end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err != nil {
			return fail(err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				return fail(err)
			}
			end++
		}
	}
	s.activeBytes = end
	s.armWriter()

	// Migration / crash catch-up: an oversized active segment seals
	// right away, turning a legacy single-file store into a segmented
	// one on first open.
	if opts.SealBytes > 0 && s.activeBytes >= opts.SealBytes && len(s.active) > 0 {
		if err := s.sealLocked(); err != nil {
			return fail(err)
		}
		s.maybeMergeLocked()
	}
	return s, nil
}

// fault consults the configured FaultHook for one low-level file
// operation (the store's and its segment writers'); a nil hook admits
// everything.
func (s *Store) fault(op string) error {
	if s.opts.FaultHook == nil {
		return nil
	}
	return s.opts.FaultHook(op)
}

// armWriter (re)binds the write-behind buffer, byte counter, and
// encoder to the current active file handle.
func (s *Store) armWriter() {
	s.w = bufio.NewWriterSize(s.f, writeBufSize)
	s.enc = json.NewEncoder(countingWriter{w: s.w, n: &s.activeBytes})
	if s.scratch == nil {
		s.scratch = new(Record)
	}
}

// Get returns the stored record for a key: the active segment first,
// then sealed segments newest-first, each a Bloom-filtered point
// lookup (one bounded block read, no scan).
func (s *Store) Get(k Key) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.active[k]; ok {
		return rec, true
	}
	rec, ok, _ := s.segLookup(k)
	return rec, ok
}

// Has reports whether a record is stored under the key, at the same
// cost as Get.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.active[k]; ok {
		return true
	}
	_, ok, _ := s.segLookup(k)
	return ok
}

// segLookup resolves a key against the sealed segments, newest first
// (the first hit is the live record). Callers hold mu.
func (s *Store) segLookup(k Key) (Record, bool, error) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		rec, ok, err := s.segs[i].get(k)
		if err != nil {
			return Record{}, false, err
		}
		if ok {
			return rec, true, nil
		}
	}
	return Record{}, false, nil
}

// Put appends a record and indexes it. Putting a record whose key is
// already stored with identical contents is a no-op — whether the
// prior copy sits in the active segment or a sealed one — which keeps
// replayed runs from growing the log; a changed record for an
// existing key is appended and wins (last-write-wins, as Open
// replays). The append is write-behind: it lands in the buffer and
// reaches the OS when the buffer fills, on Flush, or at Close — a
// record is only durable past a crash once flushed. The first write
// failure is remembered and returned by every subsequent Put, by
// Flush, and by Close, so a run on a full disk cannot silently
// pretend to be durable. Crossing the seal threshold seals the active
// segment in-line and may kick a background segment merge.
func (s *Store) Put(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.put(rec)
}

// put is Put without the lock. The encoder writes the record and its
// terminating '\n' straight into the write-behind buffer: no
// intermediate marshal slice, no per-record syscall. New keys consult
// the sealed segments (Bloom filters make the fresh-key path a few
// hash probes, not a read) so identical replays dedupe and the
// distinct-key count stays exact.
func (s *Store) put(rec Record) error {
	if s.werr != nil {
		return s.werr
	}
	k := rec.Key()
	if old, ok := s.active[k]; ok {
		if old == rec {
			return nil
		}
	} else if len(s.segs) > 0 {
		old, ok, err := s.segLookup(k)
		switch {
		case err != nil:
			s.werr = fmt.Errorf("store: append: %w", err)
			return s.werr
		case ok && old == rec:
			return nil
		case !ok:
			s.distinct++
		}
	} else {
		s.distinct++
	}
	if err := s.fault("write"); err != nil {
		s.werr = fmt.Errorf("store: append: %w", err)
		return s.werr
	}
	*s.scratch = rec
	if err := s.enc.Encode(s.scratch); err != nil {
		s.werr = fmt.Errorf("store: append: %w", err)
		return s.werr
	}
	s.activeLines++
	s.active[k] = rec
	if s.opts.SealBytes > 0 && s.activeBytes >= s.opts.SealBytes {
		if err := s.sealLocked(); err != nil {
			s.werr = fmt.Errorf("store: seal: %w", err)
			return s.werr
		}
		s.maybeMergeLocked()
	}
	return nil
}

// sealLocked turns the active segment into a sealed one: live records
// written sorted and deduplicated to "<path>.seg-NNNNNN" by
// writeSegment, then the active file truncated back to empty. A crash
// before the segment's rename leaves the active file intact (it is
// flushed first); a crash after it leaves the records duplicated in
// both places, which last-write-wins resolution and the next merge
// absorb. An active file holding only corrupt lines is truncated
// without writing a segment. Callers hold mu.
func (s *Store) sealLocked() error {
	if s.activeBytes == 0 {
		return nil
	}
	if s.opts.Tracer != nil {
		_, span := s.opts.Tracer.StartTrace(context.Background(), "store.seal")
		span.SetAttr("records", strconv.Itoa(len(s.active)))
		defer span.End()
	}
	if err := s.fault("write"); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if len(s.active) > 0 {
		seg, err := s.writeSegment(s.nextSeq, []stream{newMemStream(s.active)}, len(s.active))
		if err != nil {
			return err
		}
		s.nextSeq++
		s.segs = append(s.segs, seg)
		s.segLines += seg.count
	}

	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.activeBytes = 0
	s.activeLines = 0
	s.active = make(map[Key]Record)
	s.armWriter()
	return nil
}

// writeSegment is the one path that writes a sealed segment — for a
// seal, a background merge, and Compact alike: the last-write-wins
// merge of streams, written as segment seq and published by the
// segment writer's finish, or aborted (tmp removed) on any error.
// expected sizes the Bloom filter.
func (s *Store) writeSegment(seq uint64, streams []stream, expected int) (*segment, error) {
	sw, err := newSegWriter(s.path, seq, expected, s.opts.SparseInterval, s.fault)
	if err != nil {
		return nil, err
	}
	var addErr error
	err = mergeStreams(streams, func(rec Record, _ int, _ []int) bool {
		addErr = sw.add(rec)
		return addErr == nil
	})
	if err == nil {
		err = addErr
	}
	if err != nil {
		sw.abort()
		return nil, err
	}
	return sw.finish()
}

// maybeMergeLocked starts a background merge of every sealed segment
// into one when their count reaches the threshold. At most one merge
// runs at a time; it never touches the active segment, and new seals
// may land while it runs. Callers hold mu.
func (s *Store) maybeMergeLocked() {
	if s.opts.MergeThreshold <= 0 || s.merging || len(s.segs) < s.opts.MergeThreshold {
		return
	}
	snapshot := append([]*segment(nil), s.segs...)
	s.merging = true
	s.mergeWG.Add(1)
	go s.mergeSegments(snapshot)
}

// mergeSegments is the background merge: runMerge reads the immutable
// snapshot without holding mu, then installMerged swaps the result in
// under it.
func (s *Store) mergeSegments(snapshot []*segment) {
	defer s.mergeWG.Done()
	merged, err := s.runMerge(snapshot)
	s.mu.Lock()
	s.mergeErr = err
	if err == nil {
		s.installMerged(snapshot, merged)
	}
	s.merging = false
	s.mergeCond.Broadcast()
	s.mu.Unlock()
}

// runMerge merges a snapshot of sealed segments into a single segment
// named after the newest input, traced as "store.merge". The rename
// lands on the newest input's name, so a crash at any point leaves a
// store that opens correctly: before the rename only a tmp file exists
// (cleaned at Open), after it the lower segments hold only records the
// merged segment supersedes or duplicates.
func (s *Store) runMerge(snapshot []*segment) (merged *segment, err error) {
	if s.opts.Tracer != nil {
		_, span := s.opts.Tracer.StartTrace(context.Background(), "store.merge")
		span.SetAttr("segments", strconv.Itoa(len(snapshot)))
		defer func() {
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
		}()
	}
	total := 0
	streams := make([]stream, len(snapshot))
	for i, sg := range snapshot {
		ss, err := newSegStream(sg, 0, false, s.opts.SparseInterval)
		if err != nil {
			return nil, err
		}
		streams[i] = ss
		total += sg.count
	}
	return s.writeSegment(snapshot[len(snapshot)-1].seq, streams, total)
}

// installMerged swaps a merged segment in for the snapshot it was
// merged from, then closes and removes the inputs. The snapshot is
// still the prefix of s.segs: seals that landed while it merged stay
// behind the merged segment. Callers hold mu.
func (s *Store) installMerged(snapshot []*segment, merged *segment) {
	s.segs = append([]*segment{merged}, s.segs[len(snapshot):]...)
	s.segLines += merged.count
	for _, sg := range snapshot {
		s.segLines -= sg.count
		sg.f.Close()
		if sg.path != merged.path {
			os.Remove(sg.path)
		}
	}
}

// Flush forces every buffered append down to the OS — the checkpoint
// primitive: runs call it after every judge batch's worth of records
// and at phase end so an interrupted run loses at most the records
// buffered since the last checkpoint, and those are exactly the ones
// resume re-judges.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.werr != nil {
		return s.werr
	}
	if err := s.fault("write"); err != nil {
		s.werr = fmt.Errorf("store: flush: %w", err)
		return s.werr
	}
	if err := s.w.Flush(); err != nil {
		s.werr = fmt.Errorf("store: flush: %w", err)
		return s.werr
	}
	return nil
}

// Compact folds the whole store into one sealed segment: it seals the
// active segment, then runs the background merge (runMerge,
// installMerged) synchronously over every sealed segment. What remains
// is one segment holding exactly one line per key — the live record
// Open would resolve, superseded duplicates and corrupt lines dropped
// — and an empty active file, so a long-lived store that absorbed many
// resumed or replayed runs shrinks back to its distinct-key size.
// Segments are sorted, so two stores holding the same records compact
// to identical segment bytes. A crash mid-compact is a crash mid-seal
// or mid-merge, which Open already recovers from, and records stream
// through the merge rather than being loaded into memory. It returns
// the number of physical lines removed.
//
// Compact is for a store this process owns exclusively: the seal
// truncates the active file under any other process appending to it (a
// running llm4vvd, a concurrent sweep), whose later appends would land
// past the cut and leave a corrupt line behind. Compact offline.
func (s *Store) Compact() (removed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.merging {
		s.mergeCond.Wait()
	}
	if s.werr != nil {
		return 0, s.werr
	}
	before := s.activeLines + s.segLines
	if err := s.sealLocked(); err != nil {
		return 0, fmt.Errorf("store: compact: %w", err)
	}
	// A lone segment is rewritten too: it may hold corrupt lines.
	if len(s.segs) > 0 {
		merged, err := s.runMerge(s.segs)
		if err != nil {
			return 0, fmt.Errorf("store: compact: %w", err)
		}
		s.installMerged(s.segs, merged)
	}
	s.dropped = 0
	return before - s.segLines, nil
}

// Filter selects records for Scan. Fields form a hierarchical key
// prefix in segment sort order — Experiment, then Backend (meaningful
// once Experiment is set), then Seed (once Backend is set) — so a
// filled prefix narrows every segment to one contiguous key range.
// Since/Until bound the caller-set Record.Unix timestamp (a zero
// bound is open; records without a timestamp pass only open bounds).
type Filter struct {
	Experiment string
	Backend    string
	Seed       *uint64
	Since      int64 // inclusive lower Unix bound; 0 = unbounded
	Until      int64 // inclusive upper Unix bound; 0 = unbounded
}

func (f Filter) match(k Key) bool {
	if f.Experiment != "" && k.Experiment != f.Experiment {
		return false
	}
	if f.Backend != "" && k.Backend != f.Backend {
		return false
	}
	if f.Seed != nil && k.Seed != *f.Seed {
		return false
	}
	return true
}

// beyond reports that k sorts past the filter's prefix range — every
// later key in a sorted stream misses too, so the scan can stop.
func (f Filter) beyond(k Key) bool {
	if f.Experiment == "" {
		return false
	}
	if k.Experiment != f.Experiment {
		return k.Experiment > f.Experiment
	}
	if f.Backend == "" {
		return false
	}
	if k.Backend != f.Backend {
		return k.Backend > f.Backend
	}
	if f.Seed == nil {
		return false
	}
	return k.Seed > *f.Seed
}

// startKey is the smallest key the filter's prefix can match — where
// segment scans position themselves.
func (f Filter) startKey() Key {
	k := Key{Experiment: f.Experiment}
	if f.Experiment != "" {
		k.Backend = f.Backend
		if f.Backend != "" && f.Seed != nil {
			k.Seed = *f.Seed
		}
	}
	return k
}

// Scan streams every live record the filter selects to yield, in key
// order (for a fixed (experiment, backend, seed) prefix that is file-
// hash order), without materialising the result set: sealed segments
// contribute one bounded range read each, merged last-write-wins with
// the active index. yield returning false stops the scan. The store's
// lock is held for the duration — yield must not call back into the
// store.
func (s *Store) Scan(f Filter, yield func(Record) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := f.startKey()
	streams := make([]stream, 0, len(s.segs)+1)
	for _, sg := range s.segs {
		if len(sg.sparse) == 0 {
			continue
		}
		// Position at the block that could contain the start key; the
		// few preceding records in the block are filtered out below.
		i := 0
		if f.Experiment != "" {
			i = sort.Search(len(sg.sparse), func(j int) bool {
				return lessKey(start, sg.sparse[j].key)
			})
			if i > 0 {
				i--
			}
		}
		ss, err := newSegStream(sg, sg.sparse[i].off, false, s.opts.SparseInterval)
		if err != nil {
			return err
		}
		streams = append(streams, ss)
	}
	matching := make(map[Key]Record)
	for k, rec := range s.active {
		if f.match(k) {
			matching[k] = rec
		}
	}
	streams = append(streams, newMemStream(matching))
	return mergeStreams(streams, func(rec Record, _ int, _ []int) bool {
		k := rec.Key()
		if f.beyond(k) {
			return false
		}
		if !f.match(k) {
			return true
		}
		if f.Since != 0 && rec.Unix < f.Since {
			return true
		}
		if f.Until != 0 && rec.Unix > f.Until {
			return true
		}
		return yield(rec)
	})
}

// Records returns every live record under one (experiment, backend,
// seed) configuration, sorted by file hash so callers iterate
// deterministically — how the weighted voting strategy reads a
// panel's calibration history back out of the store. It is Scan with
// a full prefix, materialised; prefer Scan when streaming suffices.
func (s *Store) Records(experiment, backend string, seed uint64) []Record {
	var out []Record
	_ = s.Scan(Filter{Experiment: experiment, Backend: backend, Seed: &seed}, func(rec Record) bool {
		out = append(out, rec)
		return true
	})
	return out
}

// Len reports how many distinct keys are stored, across the active
// and sealed segments.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.distinct
}

// Dropped reports how many corrupt or truncated lines Open skipped,
// active and sealed segments combined.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SegmentStats describes one sealed segment for Stats.
type SegmentStats struct {
	Path         string
	Records      int
	Bytes        int64
	IndexEntries int
}

// Stats is a point-in-time description of the store's shape — what
// `judgebench -store-stats` prints and the daemon exports as store
// gauges.
type Stats struct {
	Path          string
	Keys          int   // distinct keys across active + sealed
	ActiveRecords int   // live keys in the active segment
	ActiveLines   int   // physical lines in the active file
	ActiveBytes   int64 // bytes in the active segment (buffered included)
	Dropped       int
	Segments      []SegmentStats
	MergeErr      string // last background-merge failure, if any
}

// SegmentCount reports the number of sealed segments.
func (st Stats) SegmentCount() int { return len(st.Segments) }

// SegmentRecords reports the physical record lines across sealed
// segments.
func (st Stats) SegmentRecords() int {
	n := 0
	for _, sg := range st.Segments {
		n += sg.Records
	}
	return n
}

// Stats returns a snapshot of the store's shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Path:          s.path,
		Keys:          s.distinct,
		ActiveRecords: len(s.active),
		ActiveLines:   s.activeLines,
		ActiveBytes:   s.activeBytes,
		Dropped:       s.dropped,
	}
	if s.mergeErr != nil {
		st.MergeErr = s.mergeErr.Error()
	}
	for _, sg := range s.segs {
		st.Segments = append(st.Segments, SegmentStats{
			Path:         sg.path,
			Records:      sg.count,
			Bytes:        sg.size,
			IndexEntries: len(sg.sparse),
		})
	}
	return st
}

// Close flushes the write-behind buffer, waits for any background
// merge, and closes every file handle, returning the first append or
// flush failure of the store's lifetime, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	for s.merging {
		s.mergeCond.Wait()
	}
	ferr := s.flushLocked()
	cerr := s.f.Close()
	for _, sg := range s.segs {
		sg.f.Close()
	}
	werr := s.werr
	s.mu.Unlock()
	s.mergeWG.Wait()
	switch {
	case werr != nil:
		return werr
	case ferr != nil:
		return ferr
	default:
		return cerr
	}
}

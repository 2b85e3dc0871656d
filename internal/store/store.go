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
//     JSON object per line, append-only. Every key it holds is indexed
//     in memory by where its live line sits — byte offset, length and
//     a hash of the line — never by the decoded record (Bitcask's
//     keydir: Sheehy & Smith, 2010) — and under a 128-bit fingerprint
//     of the key, never the key's strings, so an active key costs one
//     32-byte, pointer-free map slot however large its record or key.
//     Appends are write-behind — lines land in the store's own append
//     buffer and reach the OS when it fills, on an explicit Flush (a
//     Runner checkpoints after every judge batch's worth of records
//     and at phase end), and on Close; lookups read a line back from
//     the file or, for the unflushed tail, straight from the buffer.
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
//     the active segment's offset index plus the sparse indexes.
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
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
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

// maxLine is the longest line the active index can locate (its length
// field is 32 bits). Put refuses a longer record and Open drops a
// longer line as corrupt.
const maxLine = 1<<32 - 1

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
	// "rename" (the atomic publish of a new segment), "dirsync" (the
	// directory fsync after it), "truncate" (emptying the active file
	// after a seal), "remove" (deleting a merge's input segments) —
	// and a non-nil return fails that operation as if the disk had. The chaos suite
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

	// Active segment: the append-only JSONL file at path. Its first
	// flushed bytes are in f; the rest is the write-behind tail. index
	// maps every key it holds to where the key's live line sits.
	f           *os.File
	flushed     int64         // bytes of the active file written to f
	tail        tail          // unflushed lines, which start at offset flushed
	enc         *json.Encoder // encodes into tail
	scratch     *Record       // reused Encode argument; a plain rec would box into any per call
	index       map[fingerprint]activeEntry
	seeds       [2]maphash.Seed // for fingerprints; seeds[0] also for activeEntry.sum
	activeLines int             // physical lines in the active file (valid, superseded, and corrupt)

	// Sealed segments, oldest first (ascending seq).
	segs     []*segment
	segRead  segReader // reused by every segment lookup
	segLines int       // physical record lines across sealed segments
	nextSeq  uint64    // sequence number the next seal will use

	distinct   int // exact distinct keys across active + sealed segments
	dropped    int
	readErrors int   // lookups whose read failed (see Stats.ReadErrors)
	werr       error // first append failure, surfaced by Close

	// Background merge coordination: merging guards the one in-flight
	// merge; mergeCond (on mu) wakes Compact/Close waiters when it
	// finishes; mergeErr keeps the last failure for Stats.
	merging   bool
	mergeCond *sync.Cond
	mergeWG   sync.WaitGroup
	mergeErr  error
}

// activeEntry locates a key's live line in the active file: its byte
// offset, its length without the newline, and the low bits of a hash
// of the record's canonical encoding (the bytes Put would write for
// it), which lets an identical re-Put skip reading the line back
// unless it is probably a replay. 16 bytes, so with its 16-byte
// fingerprint a map slot is 32, and neither holds a pointer: the index
// keeps no key strings alive and the garbage collector never scans it.
type activeEntry struct {
	off int64
	n   uint32
	sum uint32
}

// fingerprint is the active index's key: a 128-bit hash of a whole Key
// (experiment, backend, seed and file hash), two 64-bit hashes under
// independent seeds drawn when the store opens. The index trusts it
// as the key's identity, on the same footing as the SHA-256 FileHash
// the store already treats as a file's identity: two distinct keys
// share a fingerprint with probability 2⁻¹²⁸, and since the seeds are
// random per store, no input can be crafted to collide. Get still
// confirms that the line it reads holds the asked key. Whatever needs
// a key's fields or key order (Open's distinct-key count, a seal, a
// filtered Scan) reads them from the lines.
type fingerprint struct{ a, b uint64 }

// fp is k's fingerprint in this store.
func (s *Store) fp(k Key) fingerprint {
	return fingerprint{maphash.Comparable(s.seeds[0], k), maphash.Comparable(s.seeds[1], k)}
}

// tail is the active file's write-behind buffer: the encoder appends
// whole lines to it, Flush writes it out, and lookups of lines not yet
// flushed slice it.
type tail struct{ b []byte }

func (t *tail) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	return len(p), nil
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
	s := &Store{path: path, opts: opts, f: f, index: map[fingerprint]activeEntry{}}
	s.seeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}
	s.enc = json.NewEncoder(&s.tail)
	s.scratch = new(Record)
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
	// open. lineReader has no line-length ceiling, so arbitrarily large
	// records round-trip and corruption stays line-local. Each valid
	// line is indexed by its offset, with the hash of its record's
	// canonical encoding: a line another writer encoded in another
	// field order still dedupes against a re-Put of its record. The
	// keys the replay decodes are kept until the distinct-key count
	// below, so it needs no second read.
	r := lineReader{r: bufio.NewReaderSize(f, 64*1024)}
	var off int64
	var replayed []activePair
	for {
		line, rerr := r.next()
		lineOff := off
		off += int64(len(line))
		if rerr == nil {
			off++ // the newline
		}
		if len(line) > 0 {
			s.activeLines++
			if rec, ok := decodeLine(line); !ok || int64(len(line)) > maxLine {
				s.dropped++
			} else {
				canon, err := s.encode(rec)
				if err != nil {
					return fail(err)
				}
				e := activeEntry{off: lineOff, n: uint32(len(line)), sum: s.sum(canon)}
				s.index[s.fp(rec.Key())] = e
				replayed = append(replayed, activePair{rec.Key(), e})
				s.tail.b = s.tail.b[:0]
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fail(fmt.Errorf("store: reading %s: %w", path, rerr))
		}
	}

	// One merge pass over every segment plus the active segment's live
	// keys does double duty: it builds each segment's sparse index and
	// Bloom filter, and computes the exact distinct-key count in
	// O(streams) memory (every stream is sorted, so duplicates meet at
	// the merge head). A replayed line is live when its key's index
	// entry still points at it.
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
	live := replayed[:0]
	for _, p := range replayed {
		if s.index[s.fp(p.key)] == p.e {
			live = append(live, p)
		}
	}
	sortPairs(live)
	keys, err := s.activeStream(live, keysOnly)
	if err != nil {
		return fail(err)
	}
	streams = append(streams, keys)
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
	s.flushed = end
	s.tail.b = make([]byte, 0, writeBufSize)

	// Migration / crash catch-up: an oversized active segment seals
	// right away, turning a legacy single-file store into a segmented
	// one on first open.
	if opts.SealBytes > 0 && s.flushed >= opts.SealBytes && len(s.index) > 0 {
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

// encode appends rec's line to the write-behind tail through the
// store's one encoder and returns it, newline excluded; it stays valid
// until the tail next changes. The caller keeps the line (an append)
// or cuts the tail back to drop it.
func (s *Store) encode(rec Record) ([]byte, error) {
	start := len(s.tail.b)
	*s.scratch = rec
	if err := s.enc.Encode(s.scratch); err != nil {
		s.tail.b = s.tail.b[:start]
		return nil, err
	}
	return s.tail.b[start : len(s.tail.b)-1], nil
}

// sum is the hash an activeEntry keeps of a canonical line.
func (s *Store) sum(line []byte) uint32 {
	return uint32(maphash.Bytes(s.seeds[0], line))
}

// activeSize is the active segment's logical size, the write-behind
// tail included: what the seal threshold is measured against.
func (s *Store) activeSize() int64 {
	return s.flushed + int64(len(s.tail.b))
}

// line returns the bytes of an active line: ReadAt for the part that
// is flushed, into buf when it is large enough, and the write-behind
// tail for the rest. A line wholly in the tail is returned without a
// copy and stays valid until the tail next changes. Callers hold mu.
func (s *Store) line(e activeEntry, buf []byte) ([]byte, error) {
	end := e.off + int64(e.n)
	if e.off >= s.flushed {
		return s.tail.b[e.off-s.flushed : end-s.flushed], nil
	}
	b := buf[:0]
	if cap(b) < int(e.n) {
		b = make([]byte, e.n)
	}
	b = b[:e.n]
	onDisk := min(end, s.flushed) - e.off
	if _, err := s.f.ReadAt(b[:onDisk], e.off); err != nil {
		return nil, fmt.Errorf("store: reading %s at %d: %w", s.path, e.off, err)
	}
	copy(b[onDisk:], s.tail.b)
	return b, nil
}

// record reads and decodes the live line of an active key. A line that
// no longer decodes to a record of that key — the file was changed
// under the store — is a read error. Callers hold mu.
func (s *Store) record(k Key, e activeEntry) (Record, error) {
	b, err := s.line(e, nil)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil || rec.Key() != k {
		return Record{}, fmt.Errorf("store: %s at %d no longer holds its record", s.path, e.off)
	}
	return rec, nil
}

// Get returns the stored record for a key: the active segment first
// (one line read back, from the write-behind tail when it is not yet
// flushed), then sealed segments newest-first, each a Bloom-filtered
// point lookup (one bounded block read, no scan). A read that fails
// answers false and counts in Stats.ReadErrors.
func (s *Store) Get(k Key) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		rec Record
		ok  bool
		err error
	)
	if e, in := s.index[s.fp(k)]; in {
		rec, err = s.record(k, e)
		ok = err == nil
	} else {
		rec, ok, err = s.segLookup(k)
	}
	if err != nil {
		s.readErrors++
	}
	return rec, ok
}

// Has reports whether a record is stored under the key. An active key
// is answered from the index alone; a sealed one costs what Get does,
// and a failed read answers false and counts in Stats.ReadErrors.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[s.fp(k)]; ok {
		return true
	}
	_, ok, err := s.segLookup(k)
	if err != nil {
		s.readErrors++
	}
	return ok
}

// segLookup resolves a key against the sealed segments, newest first
// (the first hit is the live record). Callers hold mu.
func (s *Store) segLookup(k Key) (Record, bool, error) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		rec, ok, err := s.segs[i].get(k, &s.segRead)
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

// put is Put without the lock. The record is encoded straight onto the
// write-behind tail — no intermediate marshal slice, no per-record
// syscall — and cut back off again when it turns out to be a replay.
// An active key is a replay when its line hashes the same and the old
// bytes confirm it; new keys consult the sealed segments (Bloom
// filters make the fresh-key path a few hash probes, not a read) so
// identical replays dedupe and the distinct-key count stays exact.
func (s *Store) put(rec Record) error {
	if s.werr != nil {
		return s.werr
	}
	start := len(s.tail.b)
	line, err := s.encode(rec)
	if err != nil {
		s.werr = fmt.Errorf("store: append: %w", err)
		return s.werr
	}
	if int64(len(line)) > maxLine {
		s.tail.b = s.tail.b[:start]
		return fmt.Errorf("store: append: a record of %d bytes is too long", len(line))
	}
	k := rec.Key()
	fp := s.fp(k)
	sum := s.sum(line)
	if old, ok := s.index[fp]; ok {
		if old.sum == sum && s.sameLine(k, old, line) {
			s.tail.b = s.tail.b[:start]
			return nil
		}
	} else if len(s.segs) > 0 {
		old, ok, err := s.segLookup(k)
		switch {
		case err != nil:
			s.tail.b = s.tail.b[:start]
			s.readErrors++
			s.werr = fmt.Errorf("store: append: %w", err)
			return s.werr
		case ok && old == rec:
			s.tail.b = s.tail.b[:start]
			return nil
		case !ok:
			s.distinct++
		}
	} else {
		s.distinct++
	}
	if err := s.fault("write"); err != nil {
		s.tail.b = s.tail.b[:start]
		s.werr = fmt.Errorf("store: append: %w", err)
		return s.werr
	}
	s.index[fp] = activeEntry{off: s.flushed + int64(start), n: uint32(len(line)), sum: sum}
	s.activeLines++
	if len(s.tail.b) >= writeBufSize {
		if err := s.writeTail(); err != nil {
			s.werr = fmt.Errorf("store: append: %w", err)
			return s.werr
		}
	}
	if s.opts.SealBytes > 0 && s.activeSize() >= s.opts.SealBytes {
		if err := s.sealLocked(); err != nil {
			s.werr = fmt.Errorf("store: seal: %w", err)
			return s.werr
		}
		s.maybeMergeLocked()
	}
	return nil
}

// sameLine confirms that an active key's live line holds the record
// just encoded as line: byte-equal, or — for a line another writer
// encoded in another field order — decoding to an equal record. A
// failed read counts in Stats.ReadErrors and answers false, so the
// record is appended again, which is harmless. Callers hold mu.
func (s *Store) sameLine(k Key, e activeEntry, line []byte) bool {
	old, err := s.line(e, nil)
	if err != nil {
		s.readErrors++
		return false
	}
	if bytes.Equal(old, line) {
		return true
	}
	rec, err := s.record(k, e)
	if err != nil {
		s.readErrors++
		return false
	}
	return rec == *s.scratch
}

// livePairs reads the active segment once in file order — the flushed
// bytes, then the write-behind tail — and returns the live lines whose
// key f's prefix selects, sorted by key. A line is live when its key's
// index entry points at it. Keys are read from the lines' prefixes and
// checked against f in place, so only lines of another shape are
// decoded and only selected keys are copied out. Callers hold mu.
func (s *Store) livePairs(f Filter) ([]activePair, error) {
	r := lineReader{r: bufio.NewReaderSize(io.MultiReader(io.NewSectionReader(s.f, 0, s.flushed), bytes.NewReader(s.tail.b)), 64*1024)}
	var pairs []activePair
	if f == (Filter{}) {
		pairs = make([]activePair, 0, len(s.index))
	}
	var off int64
	var k Key
	for {
		line, err := r.next()
		lineOff := off
		off += int64(len(line))
		if err == nil {
			off++ // the newline
		}
		selected := false
		if ref, ok := parseKeyRef(line); ok {
			if selected = f.matchRef(ref); selected {
				k = ref.key(k)
			}
		} else if rec, ok := decodeLine(line); ok {
			k = rec.Key()
			selected = f.match(k)
		}
		if selected {
			if e, in := s.index[s.fp(k)]; in && e.off == lineOff {
				pairs = append(pairs, activePair{k, e})
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", s.path, err)
		}
	}
	sortPairs(pairs)
	return pairs, nil
}

// writeTail writes the write-behind tail to the active file.
func (s *Store) writeTail() error {
	n, err := s.f.Write(s.tail.b)
	s.flushed += int64(n)
	s.tail.b = s.tail.b[:copy(s.tail.b, s.tail.b[n:])]
	if len(s.tail.b) == 0 && cap(s.tail.b) > 4*writeBufSize {
		// A huge record grew the buffer; do not keep that much idle.
		s.tail.b = make([]byte, 0, writeBufSize)
	}
	return err
}

// sealLocked turns the active segment into a sealed one: live records
// read back in key order and written to "<path>.seg-NNNNNN" by
// writeSegment, then the active file truncated back to empty. A crash
// before the segment's rename leaves the active file intact (it is
// flushed first); a crash after it leaves the records duplicated in
// both places, which last-write-wins resolution and the next merge
// absorb. An active file holding only corrupt lines is truncated
// without writing a segment. Callers hold mu.
func (s *Store) sealLocked() error {
	if s.activeSize() == 0 {
		return nil
	}
	if s.opts.Tracer != nil {
		_, span := s.opts.Tracer.StartTrace(context.Background(), "store.seal")
		span.SetAttr("records", strconv.Itoa(len(s.index)))
		defer span.End()
	}
	if err := s.fault("write"); err != nil {
		return err
	}
	if err := s.writeTail(); err != nil {
		return err
	}
	if len(s.index) > 0 {
		pairs, err := s.livePairs(Filter{})
		if err != nil {
			return err
		}
		if len(pairs) != len(s.index) {
			// The file changed under the store: fail the seal rather
			// than drop the records it no longer holds.
			return fmt.Errorf("store: %s no longer holds %d of its %d active records", s.path, len(s.index)-len(pairs), len(s.index))
		}
		live, err := s.activeStream(pairs, rawLines)
		if err != nil {
			return err
		}
		seg, err := s.writeSegment(s.nextSeq, []stream{live}, len(s.index))
		if err != nil {
			return err
		}
		s.nextSeq++
		s.segs = append(s.segs, seg)
		s.segLines += seg.count
	}

	if err := s.fault("truncate"); err != nil {
		return err
	}
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.flushed = 0
	s.activeLines = 0
	s.index = make(map[fingerprint]activeEntry)
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
	err = mergeStreams(streams, func(rec Record, winner int, _ []int) bool {
		addErr = sw.add(rec, streams[winner].line())
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
	if err == nil {
		err = s.installMerged(snapshot, merged)
	}
	s.mergeErr = err
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
// behind the merged segment. It returns the first failed removal: the
// swap stands, and an input left on disk holds only records the merged
// segment supersedes or duplicates, which the next merge folds away.
// Callers hold mu.
func (s *Store) installMerged(snapshot []*segment, merged *segment) error {
	s.segs = append([]*segment{merged}, s.segs[len(snapshot):]...)
	s.segLines += merged.count
	var first error
	for _, sg := range snapshot {
		s.segLines -= sg.count
		sg.f.Close()
		if sg.path == merged.path {
			continue
		}
		err := s.fault("remove")
		if err == nil {
			err = os.Remove(sg.path)
		}
		if first == nil {
			first = err
		}
	}
	return first
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
	if err := s.writeTail(); err != nil {
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
		if err := s.installMerged(s.segs, merged); err != nil {
			return 0, fmt.Errorf("store: compact: %w", err)
		}
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

// matchRef is match for a key read in place from a line.
func (f Filter) matchRef(r keyRef) bool {
	return (f.Experiment == "" || string(r.experiment) == f.Experiment) &&
		(f.Backend == "" || string(r.backend) == f.Backend) &&
		(f.Seed == nil || r.seed == *f.Seed)
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
// the active segment's matching lines. Those are found by one read of
// the whole active file (at most SealBytes), which decodes no line the
// filter's prefix rules out, and each is read back and decoded as the
// scan reaches it. yield returning false stops the scan. The store's lock
// is held for the duration — yield must not call back into the store.
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
	pairs, err := s.livePairs(f)
	if err != nil {
		return err
	}
	active, err := s.activeStream(pairs, records)
	if err != nil {
		return err
	}
	streams = append(streams, active)
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
	// ReadErrors counts lookups (Get, Has, and Put's replay check)
	// whose read of the active file or of a sealed segment failed since
	// Open. Such a Get or Has answers "absent", so a caller re-does the
	// work; a rising count means the files changed under the store.
	ReadErrors int
	Segments   []SegmentStats
	MergeErr   string // last background-merge failure, if any
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
		ActiveRecords: len(s.index),
		ActiveLines:   s.activeLines,
		ActiveBytes:   s.activeSize(),
		Dropped:       s.dropped,
		ReadErrors:    s.readErrors,
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

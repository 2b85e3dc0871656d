package store

// Sealed segments: the immutable half of the segmented log (see the
// package comment and docs/STORE.md). A segment is a JSONL file of
// records sorted by key with exactly one line per key, written once
// (by a seal, a background merge, or Compact — all through
// Store.writeSegment) and never modified. Point lookups go through a
// per-segment Bloom filter (fast negative) and a sparse in-memory
// index holding every Options.SparseInterval-th key with its byte
// offset: a lookup binary-searches the index and reads one bounded
// block of the file, never the whole segment. Range scans
// binary-search the same index for their start block and stream
// forward.
//
// Durability: a segment is written to a ".tmp" sibling, fsynced,
// renamed into place, and the directory fsynced — a crash mid-seal,
// mid-merge, or mid-compact leaves only a tmp file, which Open
// removes. Once a segment file exists under its final name it is
// complete.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultSparseInterval is the default sparse-index granularity: one
// in-memory index entry per this many records, so a point lookup reads
// at most one interval-sized block from disk.
const defaultSparseInterval = 64

// compareKey orders keys by (Experiment, Backend, Seed, FileHash) —
// the canonical segment sort order. A fixed (experiment, backend,
// seed) prefix therefore owns one contiguous key range per segment,
// which is what makes prefix scans a single bounded range read.
func compareKey(a, b Key) int {
	if a.Experiment != b.Experiment {
		return strings.Compare(a.Experiment, b.Experiment)
	}
	if a.Backend != b.Backend {
		return strings.Compare(a.Backend, b.Backend)
	}
	if a.Seed != b.Seed {
		if a.Seed < b.Seed {
			return -1
		}
		return 1
	}
	return strings.Compare(a.FileHash, b.FileHash)
}

func lessKey(a, b Key) bool { return compareKey(a, b) < 0 }

// keyHash returns two independent 64-bit hashes of a key for the
// Bloom filter's double hashing.
func keyHash(k Key) (uint64, uint64) {
	h := fnv.New64a()
	_, _ = io.WriteString(h, k.Experiment)
	_, _ = h.Write([]byte{0xff})
	_, _ = io.WriteString(h, k.Backend)
	_, _ = h.Write([]byte{0xff})
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(k.Seed >> (8 * i))
	}
	_, _ = h.Write(seed[:])
	_, _ = h.Write([]byte{0xff})
	_, _ = io.WriteString(h, k.FileHash)
	h1 := h.Sum64()
	// Murmur3 finalizer decorrelates the second hash from the first.
	h2 := h1
	h2 ^= h2 >> 33
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	return h1, h2
}

// bloom is a fixed-size Bloom filter over key hashes: ~10 bits and 6
// probes per expected key, giving roughly a 1% false-positive rate.
// It answers "definitely absent" without touching the segment file,
// which keeps fresh-key appends from paying a disk read per Put once
// sealed segments exist.
type bloom struct {
	bits []uint64
	mask uint64
}

const bloomProbes = 6

// newBloom sizes a filter for n expected keys (minimum 1024 bits,
// rounded up to a power of two so probe positions reduce by mask).
func newBloom(n int) *bloom {
	bits := uint64(n) * 10
	if bits < 1024 {
		bits = 1024
	}
	size := uint64(1)
	for size < bits {
		size <<= 1
	}
	return &bloom{bits: make([]uint64, size/64), mask: size - 1}
}

func (b *bloom) add(h1, h2 uint64) {
	for i := uint64(0); i < bloomProbes; i++ {
		p := (h1 + i*h2) & b.mask
		b.bits[p/64] |= 1 << (p % 64)
	}
}

func (b *bloom) may(h1, h2 uint64) bool {
	for i := uint64(0); i < bloomProbes; i++ {
		p := (h1 + i*h2) & b.mask
		if b.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

// sparseEntry is one sparse-index sample: the key starting a block and
// the block's byte offset in the segment file.
type sparseEntry struct {
	key Key
	off int64
}

// segment is one sealed, sorted, immutable segment file plus its
// in-memory lookup structures. Reads use ReadAt (stateless pread), so
// a segment is safe for concurrent lookups without its own lock.
type segment struct {
	path   string
	seq    uint64
	f      *os.File
	size   int64 // bytes of record data (== end of last line)
	count  int   // physical record lines
	sparse []sparseEntry
	filter *bloom
}

// segPath renders the segment file name for a sequence number:
// "<store>.seg-NNNNNN" beside the active file.
func segPath(storePath string, seq uint64) string {
	return fmt.Sprintf("%s.seg-%06d", storePath, seq)
}

// parseSegSeq extracts the sequence number from a segment file name,
// reporting false for tmp files and foreign names.
func parseSegSeq(storePath, name string) (uint64, bool) {
	suffix, ok := strings.CutPrefix(name, storePath+".seg-")
	if !ok || suffix == "" {
		return 0, false
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	seq, err := strconv.ParseUint(suffix, 10, 64)
	return seq, err == nil
}

// listSegments globs the directory for the store's sealed segments,
// removing stray ".tmp" leftovers of interrupted seals and merges
// (they are incomplete by construction — a finished segment was
// renamed to its final name before the writer returned). Returned
// paths are ordered by sequence number, oldest first.
func listSegments(storePath string) (paths []string, seqs []uint64, err error) {
	matches, err := filepath.Glob(storePath + ".seg-*")
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(matches)
	for _, m := range matches {
		if strings.HasSuffix(m, ".tmp") {
			// Interrupted seal or merge: the tmp was never renamed, so
			// its records are either still in the active file (seal) or
			// still in the input segments (merge). Safe to delete.
			if rmErr := os.Remove(m); rmErr != nil && !os.IsNotExist(rmErr) {
				return nil, nil, rmErr
			}
			continue
		}
		seq, ok := parseSegSeq(storePath, m)
		if !ok {
			continue
		}
		paths = append(paths, m)
		seqs = append(seqs, seq)
	}
	return paths, seqs, nil
}

// readLine reads one newline-terminated line without a length ceiling
// (records can exceed bufio.Scanner's 64KiB token cap). The returned
// slice excludes the terminator; io.EOF surfaces after the last line.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, err
}

// get is the point lookup: Bloom filter, then binary search over the
// sparse index for the block that could hold k, then one bounded
// block read — never a full-segment scan.
func (sg *segment) get(k Key) (Record, bool, error) {
	h1, h2 := keyHash(k)
	if !sg.filter.may(h1, h2) {
		return Record{}, false, nil
	}
	// First sparse entry strictly greater than k bounds the block; the
	// entry before it starts the block. i == 0 means k sorts before the
	// segment's smallest key.
	i := sort.Search(len(sg.sparse), func(i int) bool { return lessKey(k, sg.sparse[i].key) })
	if i == 0 {
		return Record{}, false, nil
	}
	start := sg.sparse[i-1].off
	end := sg.size
	if i < len(sg.sparse) {
		end = sg.sparse[i].off
	}
	r := bufio.NewReader(io.NewSectionReader(sg.f, start, end-start))
	for {
		line, err := readLine(r)
		if len(line) > 0 {
			var rec Record
			if uerr := json.Unmarshal(line, &rec); uerr == nil {
				switch c := compareKey(rec.Key(), k); {
				case c == 0:
					return rec, true, nil
				case c > 0:
					return Record{}, false, nil // sorted: passed it
				}
			}
		}
		if err == io.EOF {
			return Record{}, false, nil
		}
		if err != nil {
			return Record{}, false, fmt.Errorf("store: reading %s: %w", sg.path, err)
		}
	}
}

// stream is a sequential cursor over records in key order, the common
// currency of the k-way merges behind Open's accounting, Scan, and
// every segment write.
type stream interface {
	// peek returns the current record; ok is false when exhausted.
	peek() (rec Record, ok bool)
	// advance moves to the next record.
	advance() error
}

// segStream walks a segment file from a byte offset. When index is
// non-nil the walk also (re)builds the segment's sparse index, Bloom
// filter, count, and size — how Open constructs lookup structures in
// the same pass that feeds the distinct-key merge. Unparsable lines
// (outside interference with a sealed file) are skipped and counted.
type segStream struct {
	sg       *segment
	r        *bufio.Reader
	off      int64 // offset of the next unread line
	cur      Record
	ok       bool
	indexing bool
	interval int
	dropped  int
}

func newSegStream(sg *segment, startOff int64, indexing bool, interval int) (*segStream, error) {
	size := sg.size
	if indexing {
		fi, err := sg.f.Stat()
		if err != nil {
			return nil, err
		}
		size = fi.Size()
		sg.count = 0
		sg.sparse = nil
		// Size the Bloom filter from the file size (~10 bits per
		// conservatively-small 100-byte record); oversizing only lowers
		// the false-positive rate.
		sg.filter = newBloom(int(size/100) + 1)
	}
	ss := &segStream{
		sg:       sg,
		r:        bufio.NewReaderSize(io.NewSectionReader(sg.f, startOff, size-startOff), 64*1024),
		off:      startOff,
		indexing: indexing,
		interval: interval,
	}
	return ss, ss.advance()
}

func (ss *segStream) peek() (Record, bool) { return ss.cur, ss.ok }

func (ss *segStream) advance() error {
	for {
		lineStart := ss.off
		line, err := readLine(ss.r)
		ss.off += int64(len(line))
		if err == nil {
			ss.off++ // the newline
		}
		if len(line) > 0 {
			var rec Record
			if uerr := json.Unmarshal(line, &rec); uerr != nil || rec.FileHash == "" || rec.Experiment == "" {
				ss.dropped++
			} else {
				if ss.indexing {
					if ss.sg.count%ss.interval == 0 {
						ss.sg.sparse = append(ss.sg.sparse, sparseEntry{key: rec.Key(), off: lineStart})
					}
					h1, h2 := keyHash(rec.Key())
					ss.sg.filter.add(h1, h2)
					ss.sg.count++
					ss.sg.size = ss.off
				}
				ss.cur, ss.ok = rec, true
				return nil
			}
		}
		if err == io.EOF {
			ss.cur, ss.ok = Record{}, false
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", ss.sg.path, err)
		}
	}
}

// memStream walks an in-memory record map in sorted key order — the
// active segment's face in a merge.
type memStream struct {
	recs map[Key]Record
	keys []Key
	i    int
}

func newMemStream(recs map[Key]Record) *memStream {
	keys := make([]Key, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	return &memStream{recs: recs, keys: keys}
}

func (ms *memStream) peek() (Record, bool) {
	if ms.i >= len(ms.keys) {
		return Record{}, false
	}
	return ms.recs[ms.keys[ms.i]], true
}

func (ms *memStream) advance() error { ms.i++; return nil }

// mergeStreams k-way-merges sorted streams with last-write-wins
// resolution: streams are ordered oldest first, and when several
// streams hold the same key the newest stream's record is emitted and
// the older duplicates are consumed silently. emit receives the
// winning record, the index of the stream it came from, and the
// indexes of every stream that held the key (winner included, reused
// buffer — copy to retain); returning false stops the merge early.
func mergeStreams(streams []stream, emit func(rec Record, winner int, holders []int) bool) error {
	holders := make([]int, 0, len(streams))
	for {
		// Find the minimal key among stream heads and every stream
		// holding it. Stream counts are small (segments + active), so a
		// linear select beats heap bookkeeping.
		holders = holders[:0]
		var minKey Key
		for i, st := range streams {
			rec, ok := st.peek()
			if !ok {
				continue
			}
			k := rec.Key()
			if len(holders) == 0 || lessKey(k, minKey) {
				holders = holders[:0]
				minKey = k
			} else if compareKey(k, minKey) != 0 {
				continue
			}
			holders = append(holders, i)
		}
		if len(holders) == 0 {
			return nil
		}
		winner := holders[len(holders)-1] // newest stream wins
		rec, _ := streams[winner].peek()
		keep := emit(rec, winner, holders)
		for _, i := range holders {
			if err := streams[i].advance(); err != nil {
				return err
			}
		}
		if !keep {
			return nil
		}
	}
}

// segWriter writes one segment file: records must arrive in strictly
// ascending key order (one line per key). The sparse index and Bloom
// filter are built while writing, so a freshly sealed or merged
// segment needs no rescan. The write goes to a ".tmp" sibling;
// finish fsyncs it, renames it into place, and fsyncs the directory —
// the crash contract sealed segments rely on.
type segWriter struct {
	tmpPath  string
	path     string
	f        *os.File
	w        *bufio.Writer
	seg      *segment
	interval int
	fault    func(op string) error // the store's fault check; never nil
}

func newSegWriter(storePath string, seq uint64, expected, interval int, fault func(op string) error) (*segWriter, error) {
	path := segPath(storePath, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &segWriter{
		tmpPath:  tmp,
		path:     path,
		f:        f,
		w:        bufio.NewWriterSize(f, 256*1024),
		seg:      &segment{path: path, seq: seq, f: f, filter: newBloom(expected)},
		interval: interval,
		fault:    fault,
	}, nil
}

func (sw *segWriter) add(rec Record) error {
	if err := sw.fault("write"); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if sw.seg.count%sw.interval == 0 {
		sw.seg.sparse = append(sw.seg.sparse, sparseEntry{key: rec.Key(), off: sw.seg.size})
	}
	h1, h2 := keyHash(rec.Key())
	sw.seg.filter.add(h1, h2)
	if _, err := sw.w.Write(line); err != nil {
		return err
	}
	if err := sw.w.WriteByte('\n'); err != nil {
		return err
	}
	sw.seg.size += int64(len(line)) + 1
	sw.seg.count++
	return nil
}

// finish makes the segment durable and visible: flush, fsync, rename
// to the final name, fsync the directory. The write handle is kept as
// the segment's read handle (the rename moves the name, not the
// inode). On error the tmp file is removed.
func (sw *segWriter) finish() (*segment, error) {
	fail := func(err error) (*segment, error) {
		sw.f.Close()
		os.Remove(sw.tmpPath)
		return nil, err
	}
	if err := sw.fault("write"); err != nil {
		return fail(err)
	}
	if err := sw.w.Flush(); err != nil {
		return fail(err)
	}
	if err := sw.fault("sync"); err != nil {
		return fail(err)
	}
	if err := sw.f.Sync(); err != nil {
		return fail(err)
	}
	if err := sw.fault("rename"); err != nil {
		return fail(err)
	}
	if err := os.Rename(sw.tmpPath, sw.path); err != nil {
		return fail(err)
	}
	if err := syncDir(sw.path); err != nil {
		sw.f.Close()
		return nil, err
	}
	return sw.seg, nil
}

// abort discards a partially-written segment.
func (sw *segWriter) abort() {
	sw.f.Close()
	os.Remove(sw.tmpPath)
}

// syncDir fsyncs the directory containing path, making a just-renamed
// entry durable: without it the rename itself could evaporate in a
// crash even though the file's contents were synced.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openSegment opens an existing segment file for reading. Lookup
// structures are built by the caller's indexing segStream pass.
func openSegment(path string, seq uint64) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &segment{path: path, seq: seq, f: f}, nil
}

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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// Bloom filter's double hashing: FNV-1a over the key's fields, each
// field but the last followed by 0xff and the seed as 8 little-endian
// bytes, computed in place (hash/fnv would copy every string it is
// given and allocate its state on each call).
func keyHash(k Key) (uint64, uint64) {
	const prime = 1099511628211
	h1 := uint64(14695981039346656037)
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h1 = (h1 ^ uint64(s[i])) * prime
		}
	}
	sep := func() { h1 = (h1 ^ 0xff) * prime }
	str(k.Experiment)
	sep()
	str(k.Backend)
	sep()
	for i := 0; i < 8; i++ {
		h1 = (h1 ^ uint64(byte(k.Seed>>(8*i)))) * prime
	}
	sep()
	str(k.FileHash)
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

// lineReader reads newline-terminated lines without a length ceiling
// (records can exceed bufio.Scanner's 64KiB token cap) and without an
// allocation per line: a line is a slice of the reader's buffer, or of
// long (reused) when it outgrows the buffer. It excludes the
// terminator, stays valid until the next read, and io.EOF surfaces
// after the last line.
type lineReader struct {
	r    *bufio.Reader
	long []byte
}

func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = lr.r.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, err
}

// segReader reads one block of a sealed segment for a lookup. A Store
// keeps one and points it at each lookup's block, so a lookup
// allocates no read buffer; lookups hold the store's mutex, so they
// never share it.
type segReader struct {
	sec io.SectionReader
	lr  lineReader
}

// reset points r at bytes [off, off+n) of f and returns its line
// reader.
func (r *segReader) reset(f *os.File, off, n int64) *lineReader {
	r.sec = *io.NewSectionReader(f, off, n)
	if r.lr.r == nil {
		r.lr.r = bufio.NewReader(&r.sec)
	} else {
		r.lr.r.Reset(&r.sec)
	}
	return &r.lr
}

// keyRef is a line's key read in place: slices of the line itself, so
// comparing it with a Key allocates nothing.
type keyRef struct {
	experiment, backend, fileHash []byte
	seed                          uint64
}

// parseKeyRef reads a line's key from its first four fields without
// decoding the rest. Every line the store writes starts with them, in
// Record's field order: {"experiment":"…","backend":"…","seed":N,
// "file_hash":"…" followed by a comma or the closing brace. Any other
// shape — another field order, spacing, a key string with an escape or
// a byte outside printable ASCII, a seed with a leading zero — reports
// false, and the caller decodes the whole line instead.
func parseKeyRef(line []byte) (keyRef, bool) {
	var r keyRef
	var ok bool
	if line, ok = bytes.CutPrefix(line, []byte(`{"experiment":`)); !ok {
		return r, false
	}
	if r.experiment, line, ok = cutPlainString(line); !ok {
		return r, false
	}
	if line, ok = bytes.CutPrefix(line, []byte(`,"backend":`)); !ok {
		return r, false
	}
	if r.backend, line, ok = cutPlainString(line); !ok {
		return r, false
	}
	if line, ok = bytes.CutPrefix(line, []byte(`,"seed":`)); !ok {
		return r, false
	}
	n := 0
	for ; n < len(line) && line[n] >= '0' && line[n] <= '9'; n++ {
		d := uint64(line[n] - '0')
		if r.seed > (math.MaxUint64-d)/10 {
			return r, false
		}
		r.seed = r.seed*10 + d
	}
	if n == 0 || n > 1 && line[0] == '0' {
		return r, false
	}
	if line, ok = bytes.CutPrefix(line[n:], []byte(`,"file_hash":`)); !ok {
		return r, false
	}
	if r.fileHash, line, ok = cutPlainString(line); !ok {
		return r, false
	}
	return r, len(line) > 0 && (line[0] == ',' || line[0] == '}')
}

// cutPlainString cuts a JSON string holding only printable ASCII and no
// escapes — which decodes to its bytes as they stand — off the front of
// b, returning its contents and the rest.
func cutPlainString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c == '\\' || c < 0x20 || c >= 0x7f:
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// compare orders the line's key against k, as compareKey does.
func (r keyRef) compare(k Key) int {
	if c := compareBytes(r.experiment, k.Experiment); c != 0 {
		return c
	}
	if c := compareBytes(r.backend, k.Backend); c != 0 {
		return c
	}
	if r.seed != k.Seed {
		if r.seed < k.Seed {
			return -1
		}
		return 1
	}
	return compareBytes(r.fileHash, k.FileHash)
}

// compareBytes is strings.Compare(string(b), s) without the copy.
func compareBytes(b []byte, s string) int {
	switch {
	case string(b) == s:
		return 0
	case string(b) < s:
		return -1
	}
	return 1
}

// key copies the line's key out, reusing prev's experiment and backend
// strings when they are equal (consecutive lines mostly share them).
func (r keyRef) key(prev Key) Key {
	k := Key{Experiment: prev.Experiment, Backend: prev.Backend, Seed: r.seed, FileHash: string(r.fileHash)}
	if string(r.experiment) != k.Experiment {
		k.Experiment = string(r.experiment)
	}
	if string(r.backend) != k.Backend {
		k.Backend = string(r.backend)
	}
	return k
}

// decodeLine decodes a record line. A line holds a record when it
// decodes, names an experiment and a file hash, and — when it starts
// with the key prefix parseKeyRef reads — its decoded key is the one
// that prefix names (a later duplicate field could say otherwise). So
// a line's key can be read from its prefix wherever that parses, and
// only lines of another shape need a full decode to find their key.
func decodeLine(line []byte) (Record, bool) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil || rec.FileHash == "" || rec.Experiment == "" {
		return Record{}, false
	}
	if ref, ok := parseKeyRef(line); ok && ref.compare(rec.Key()) != 0 {
		return Record{}, false
	}
	return rec, true
}

// get is the point lookup: Bloom filter, then binary search over the
// sparse index for the block that could hold k, then one bounded
// block read — never a full-segment scan. Each line's key is compared
// from its prefix; only the line holding k is decoded. The walk keeps
// to segStream's rule for which lines count (see segStream): a line
// keyed past k ends the search, and so does a line keyed k that does
// not hold a record, since a later line of the same key is out of
// order.
func (sg *segment) get(k Key, sr *segReader) (Record, bool, error) {
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
	r := sr.reset(sg.f, start, end-start)
	read := start
	for {
		line, err := r.next()
		read += int64(len(line))
		if err == nil {
			read++ // the newline
		}
		if len(line) > 0 {
			var c int
			if ref, ok := parseKeyRef(line); ok {
				c = ref.compare(k)
			} else if rec, ok := decodeLine(line); ok {
				c = compareKey(rec.Key(), k)
			} else {
				c = -1 // no key: skipped, as segStream skips it
			}
			switch {
			case c == 0:
				rec, ok := decodeLine(line)
				return rec, ok, nil
			case c > 0:
				return Record{}, false, nil // sorted: passed it
			}
		}
		if err == io.EOF && read < end {
			// The file ends inside a block the index says is there: it
			// was cut short under the store.
			err = io.ErrUnexpectedEOF
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
	// line returns the current record's line as the segment writer
	// would encode it, when the stream holds it already; nil means the
	// writer encodes the record itself. It is valid until advance.
	line() []byte
	// advance moves to the next record.
	advance() error
}

// segStream walks a segment file from a byte offset. When index is
// non-nil the walk also (re)builds the segment's sparse index, Bloom
// filter, count, and size — how Open constructs lookup structures in
// the same pass that feeds the distinct-key merge. A line counts only
// when it holds a record (decodeLine) keyed strictly after every keyed
// line before it: unparsable lines and lines out of key order (outside
// interference with a sealed file) are skipped and counted. A line is
// keyed when its key can be read — from its prefix (parseKeyRef) or by
// decoding it — and a keyed line that is skipped still raises the bar,
// which is what lets get stop at the first line keyed past its key
// without decoding it. Every walk starts at a line that counts (the
// file's start or a sparse-index offset), so walks from different
// offsets agree on which lines count.
type segStream struct {
	sg       *segment
	r        lineReader
	off      int64 // offset of the next unread line
	cur      Record
	ok       bool
	last     Key  // the greatest key read so far
	keyed    bool // whether last is set
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
		r:        lineReader{r: bufio.NewReaderSize(io.NewSectionReader(sg.f, startOff, size-startOff), 64*1024)},
		off:      startOff,
		indexing: indexing,
		interval: interval,
	}
	return ss, ss.advance()
}

func (ss *segStream) peek() (Record, bool) { return ss.cur, ss.ok }

func (ss *segStream) line() []byte { return nil }

func (ss *segStream) advance() error {
	for {
		lineStart := ss.off
		line, err := ss.r.next()
		ss.off += int64(len(line))
		if err == nil {
			ss.off++ // the newline
		}
		if len(line) > 0 && ss.take(line) {
			if ss.indexing {
				if ss.sg.count%ss.interval == 0 {
					ss.sg.sparse = append(ss.sg.sparse, sparseEntry{key: ss.cur.Key(), off: lineStart})
				}
				h1, h2 := keyHash(ss.cur.Key())
				ss.sg.filter.add(h1, h2)
				ss.sg.count++
				ss.sg.size = ss.off
			}
			ss.ok = true
			return nil
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

// take decides whether a line counts (see segStream), making its record
// current when it does and counting it dropped when it does not.
func (ss *segStream) take(line []byte) bool {
	rec, ok := decodeLine(line)
	k := rec.Key()
	if !ok {
		ref, keyed := parseKeyRef(line)
		if !keyed {
			ss.dropped++
			return false
		}
		k = ref.key(ss.last)
	}
	after := !ss.keyed || compareKey(k, ss.last) > 0
	if after {
		ss.last, ss.keyed = k, true
	}
	if !ok || !after {
		ss.dropped++
		return false
	}
	ss.cur = rec
	return true
}

// activeRead is how much of each live line an activeStream reads.
type activeRead int

const (
	// keysOnly reads nothing: records carry just the key fields, which
	// is all Open's distinct-key count needs.
	keysOnly activeRead = iota
	// rawLines reads each line and, when it hashes as the canonical
	// encoding the index recorded, passes it to the segment writer as
	// it is, with a keys-only record; other lines (another writer's
	// field order) are decoded. A seal needs no more.
	rawLines
	// records decodes every line: Scan yields whole records.
	records
)

// activePair is one live active line: its key and its index entry.
type activePair struct {
	key Key
	e   activeEntry
}

// sortPairs puts live lines in key order, the order they merge in.
func sortPairs(pairs []activePair) {
	slices.SortFunc(pairs, func(a, b activePair) int { return compareKey(a.key, b.key) })
}

// activeStream walks live active lines in key order — the active
// segment's face in a merge — reading each line back only when the
// walk reaches it.
type activeStream struct {
	s     *Store
	pairs []activePair // sorted by key
	i     int
	read  activeRead
	cur   Record
	raw   []byte // the current line in rawLines mode; nil when decoded
	buf   []byte // reused for lines read from the file
}

// activeStream starts a walk over sorted live pairs. Callers hold mu for
// the stream's life.
func (s *Store) activeStream(pairs []activePair, read activeRead) (*activeStream, error) {
	as := &activeStream{s: s, pairs: pairs, i: -1, read: read}
	return as, as.advance()
}

func (as *activeStream) peek() (Record, bool) { return as.cur, as.i < len(as.pairs) }

func (as *activeStream) line() []byte { return as.raw }

func (as *activeStream) advance() error {
	as.i++
	as.cur, as.raw = Record{}, nil
	if as.i >= len(as.pairs) {
		return nil
	}
	k, e := as.pairs[as.i].key, as.pairs[as.i].e
	keyRec := Record{Experiment: k.Experiment, Backend: k.Backend, Seed: k.Seed, FileHash: k.FileHash}
	switch as.read {
	case keysOnly:
		as.cur = keyRec
		return nil
	case rawLines:
		b, err := as.s.line(e, as.buf)
		if err != nil {
			return err
		}
		if e.off < as.s.flushed {
			as.buf = b[:0] // read from the file into as.buf, not the tail
		}
		if as.s.sum(b) == e.sum {
			as.cur, as.raw = keyRec, b
			return nil
		}
	}
	var err error
	as.cur, err = as.s.record(k, e)
	return err
}

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

// add appends one record: its line as given, or, when line is nil,
// the record encoded.
func (sw *segWriter) add(rec Record, line []byte) error {
	if err := sw.fault("write"); err != nil {
		return err
	}
	if line == nil {
		var err error
		if line, err = json.Marshal(rec); err != nil {
			return err
		}
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
	if err := syncDir(sw.path, sw.fault); err != nil {
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
// crash even though the file's contents were synced. The fault check
// is consulted as "dirsync".
func syncDir(path string, fault func(op string) error) error {
	if err := fault("dirsync"); err != nil {
		return err
	}
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

package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"github.com/fix-index/fix/internal/xmltree"
)

// Pointer addresses a node inside the primary storage: the high 32 bits
// select a record (document), the low 32 bits are the byte offset of the
// node's binary encoding inside that record. Pointers are what the FIX
// B-tree stores as values for the unclustered index.
type Pointer uint64

// MakePointer packs a record number and an in-record offset.
func MakePointer(rec, off uint32) Pointer {
	return Pointer(uint64(rec)<<32 | uint64(off))
}

// Rec returns the record number.
func (p Pointer) Rec() uint32 { return uint32(p >> 32) }

// Off returns the byte offset inside the record.
func (p Pointer) Off() uint32 { return uint32(p) }

func (p Pointer) String() string {
	return fmt.Sprintf("ptr(%d:%d)", p.Rec(), p.Off())
}

// Stats accumulates I/O accounting for a Store. Sequential reads are reads
// that start exactly where the previous read ended; everything else is
// counted as a random read. Cached reads touch no I/O and are counted
// separately.
type Stats struct {
	RecordsWritten int64
	BytesWritten   int64
	RandomReads    int64
	SeqReads       int64
	CachedReads    int64
	BytesRead      int64
	// SubtreeReads/SubtreeBytes count pointer dereferences through
	// ReadSubtree: the I/O a deployment would pay to fetch just the
	// pointed-to subtree (one seek plus its bytes), independent of the
	// record-level caching this implementation uses physically. The
	// unclustered-index refinement cost model is built on these.
	SubtreeReads int64
	SubtreeBytes int64
}

// Sub returns the field-wise difference s - o, the I/O that happened
// between two snapshots. The query trace uses it to attribute the
// fetch/refinement I/O of one query.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		RecordsWritten: s.RecordsWritten - o.RecordsWritten,
		BytesWritten:   s.BytesWritten - o.BytesWritten,
		RandomReads:    s.RandomReads - o.RandomReads,
		SeqReads:       s.SeqReads - o.SeqReads,
		CachedReads:    s.CachedReads - o.CachedReads,
		BytesRead:      s.BytesRead - o.BytesRead,
		SubtreeReads:   s.SubtreeReads - o.SubtreeReads,
		SubtreeBytes:   s.SubtreeBytes - o.SubtreeBytes,
	}
}

// storeMagic starts a heap of records and batch trailers (batch.go).
const storeMagic = "FIXSTOR2"

// maxRecordBytes bounds a record's length, whose top bit would mark a
// trailer.
const maxRecordBytes = 1<<31 - 1

// Store is an append-only heap of records, each holding one binary-encoded
// XML document (or subtree, in the clustered-copy case), and of the batch
// trailers that make them durable (Seal). Records are length-prefixed; the
// offset table is kept in memory and rebuilt by scanning on open.
//
// A Store is safe for concurrent readers; appends must not race with other
// operations.
type Store struct {
	mu sync.Mutex
	// f is what the store writes and its views read through: on unix, a
	// file whose views read in a shared mapping of it (see mapHeap). own is the file as
	// the store was given it, and the store's own reads go through it —
	// the scan at open and Record (indexing a document just appended,
	// scrub, Document) read a record once, and through the mapping would
	// leave every page they touch resident in the process.
	f    File
	own  File
	dict *xmltree.Dict
	offs []int64 // offset of each record's length prefix
	lens []uint32
	end  int64 // next append position
	torn int64 // bytes of the file past end at open (see TornTail)
	// sealedTail says the torn bytes may hold a sealed batch (see scan).
	sealedTail bool
	// opened lists the deletes of the trailers OpenStore read, in order
	// (DeletedSince).
	opened  []deletion
	lastEnd int64 // end offset of the last physical read, for seq/random
	stats   Stats
	rs      readStats // shared with every ReadView frozen from this store

	// The open batch: everything appended since the last trailer.
	sealed  int64    // where the open batch starts: the end of the last trailer, or of the magic
	crc     uint32   // CRC-32C of the bytes from sealed to end
	labels  int      // dictionary IDs 1..labels are durable: in a trailer or in labels.dict
	pending []uint32 // records the open batch deleted, in the order deleted
	rolls   int      // Rollbacks so far, for Walk

	// deleted marks records removed by DeleteDocument. The heap is
	// append-only, so deletion is a tombstone: the bytes stay on disk
	// but every scan and refinement path skips the record. The next
	// trailer records it; OpenStore restores the set from the trailers.
	// TombSnapshot copies its bitmap.
	deleted tombstones
	// tombSnap is the snapshot TombSnapshot last built; everything that
	// sets or clears a tombstone resets it to nil.
	tombSnap *TombSet

	cacheRec uint32
	cacheBuf []byte
	hasCache bool
}

// NewStore initializes an empty store over f, writing the header. The
// dictionary is shared with whoever encodes the trees.
func NewStore(f File, dict *xmltree.Dict) (*Store, error) {
	if _, err := f.WriteAt([]byte(storeMagic), 0); err != nil {
		return nil, fmt.Errorf("storage: writing header: %w", err)
	}
	end := int64(len(storeMagic))
	return &Store{f: mapHeap(f), own: f, dict: dict, end: end, sealed: end}, nil
}

// OpenStore opens an existing store, rebuilding the record offset table,
// the tombstones and the dictionary's labels from the batches whose
// trailer checks (see scan). It never writes the file: whatever follows
// the last good trailer is left for the caller to judge (TornTail) and,
// when it can only be a batch a crash cut short, to drop (DropTornTail).
func OpenStore(f File, dict *xmltree.Dict) (*Store, error) {
	hdr := make([]byte, len(storeMagic))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("storage: reading header: %w", err)
	}
	if string(hdr) != storeMagic {
		return nil, fmt.Errorf("storage: bad magic %q", hdr)
	}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	s := &Store{own: f, dict: dict}
	if err := s.scan(size); err != nil {
		return nil, err
	}
	s.f = mapHeap(f)
	return s, nil
}

// TornTail returns how many bytes of the file follow the last batch
// whose trailer checks, 0 when the file ends on one. While any do,
// appends fail: one would land amid the torn bytes.
func (s *Store) TornTail() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn
}

// ErrSealedTail is DropTornTail's refusal: the bytes past the last good
// trailer may hold a sealed batch (see scan), and so a write that was
// acknowledged.
var ErrSealedTail = errors.New("storage: the bytes past the last good trailer may hold a sealed batch")

// DropTornTail cuts the file back to its last good trailer and syncs it,
// so the next append lands where the torn batch began. It does so only
// when the torn bytes can be no more than the one batch a crash cut short,
// which was never acknowledged: otherwise it fails with ErrSealedTail and
// leaves the file alone. The bytes it cuts are gone for good.
func (s *Store) DropTornTail() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn == 0 {
		return nil
	}
	if s.sealedTail {
		return fmt.Errorf("%w: %d bytes past the trailer that ends at %d", ErrSealedTail, s.torn, s.end)
	}
	if err := s.f.Truncate(s.end); err != nil {
		return fmt.Errorf("storage: dropping the torn batch at %d: %w", s.end, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: dropping the torn batch at %d: %w", s.end, err)
	}
	s.torn = 0
	return nil
}

// Dict returns the label dictionary used to encode records.
func (s *Store) Dict() *xmltree.Dict { return s.dict }

// NumRecords returns the number of records in the store.
func (s *Store) NumRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.offs)
}

// Size returns the total byte size of the store.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Stats returns a snapshot of the I/O counters: the store's own, merged
// with the counters of every ReadView frozen from it, so a caller
// differencing Stats around a query sees the same deltas whether the
// query read through the store or a frozen view.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	rs := s.rs.load()
	st.SeqReads += rs.SeqReads
	st.RandomReads += rs.RandomReads
	st.CachedReads += rs.CachedReads
	st.BytesRead += rs.BytesRead
	st.SubtreeReads += rs.SubtreeReads
	st.SubtreeBytes += rs.SubtreeBytes
	return st
}

// ResetStats zeroes the I/O counters (store and view side), so an
// experiment can measure a single query in isolation.
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.lastEnd = -1
	s.mu.Unlock()
	s.rs.reset()
}

// AppendTree encodes and appends a document tree, returning its record
// number.
func (s *Store) AppendTree(n *xmltree.Node) (uint32, error) {
	return s.appendRecord(xmltree.AppendBinary(make([]byte, 4, 64), n, s.dict))
}

// AppendBytes appends a pre-encoded record to the open batch.
func (s *Store) AppendBytes(b []byte) (uint32, error) {
	return s.appendRecord(append(make([]byte, 4, 4+len(b)), b...))
}

// appendRecord appends the record rec[4:] to the open batch, its length
// prefix in the four bytes before it, with one write.
func (s *Store) appendRecord(rec []byte) (uint32, error) {
	b := rec[4:]
	if len(b) > maxRecordBytes {
		return 0, fmt.Errorf("storage: append: a record of %d bytes, the most is %d", len(b), maxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn > 0 {
		return 0, fmt.Errorf("storage: append: %d bytes past the last good trailer at %d", s.torn, s.end)
	}
	binary.BigEndian.PutUint32(rec, uint32(len(b)))
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return 0, fmt.Errorf("storage: append: %w", err)
	}
	s.crc = crc32.Update(s.crc, castagnoli, rec)
	n := uint32(len(s.offs))
	s.offs = append(s.offs, s.end)
	s.lens = append(s.lens, uint32(len(b)))
	s.end += int64(len(rec))
	s.stats.RecordsWritten++
	s.stats.BytesWritten += int64(len(rec))
	return n, nil
}

// ReadRecord reads record rec into buf's storage, grown as needed, and
// returns it. It reads through the store's own file — never the mapping,
// whose pages a read would leave resident in the process — and bypasses
// the record cache and the read counters: it is how the index reads the
// units whose agreement it works out while it builds or grows, which are
// not a query's reads.
func (s *Store) ReadRecord(buf []byte, rec uint32) ([]byte, error) {
	s.mu.Lock()
	off, n, err := s.spanLocked(rec)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.readRecord(buf, rec, off, n)
}

// spanLocked returns where the bytes of record rec lie in the store's file.
// The caller holds s.mu.
func (s *Store) spanLocked(rec uint32) (off int64, n int, err error) {
	if int(rec) >= len(s.offs) {
		return 0, 0, fmt.Errorf("storage: record %d out of range (have %d)", rec, len(s.offs))
	}
	return s.offs[rec] + 4, int(s.lens[rec]), nil
}

// readRecord reads the n bytes of record rec at off, as spanLocked gives
// them, from the store's own file into buf's storage, grown as needed.
func (s *Store) readRecord(buf []byte, rec uint32, off int64, n int) ([]byte, error) {
	buf = slices.Grow(buf[:0], n)[:n]
	if _, err := s.own.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: reading record %d: %w", rec, err)
	}
	return buf, nil
}

// Record returns the raw bytes of a record, with I/O accounting. The most
// recently read record is cached so that repeated probes of the same
// document during refinement don't multiply counted I/O.
func (s *Store) Record(rec uint32) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordLocked(rec)
}

func (s *Store) recordLocked(rec uint32) ([]byte, error) {
	off, n, err := s.spanLocked(rec)
	if err != nil {
		return nil, err
	}
	if s.hasCache && s.cacheRec == rec {
		s.stats.CachedReads++
		return s.cacheBuf, nil
	}
	buf, err := s.readRecord(nil, rec, off, n)
	if err != nil {
		return nil, err
	}
	if s.offs[rec] == s.lastEnd {
		s.stats.SeqReads++
	} else {
		s.stats.RandomReads++
	}
	s.lastEnd = off + int64(n)
	s.stats.BytesRead += int64(n)
	s.cacheRec, s.cacheBuf, s.hasCache = rec, buf, true
	return buf, nil
}

// Cursor returns a navigation cursor over the given record.
func (s *Store) Cursor(rec uint32) (xmltree.Cursor, error) {
	buf, err := s.Record(rec)
	if err != nil {
		return xmltree.Cursor{}, err
	}
	return xmltree.Cursor{Buf: buf, Dict: s.dict}, nil
}

// ReadSubtree resolves a pointer to a cursor positioned at the pointed-to
// node.
func (s *Store) ReadSubtree(p Pointer) (xmltree.Cursor, xmltree.Ref, error) {
	cur, err := s.Cursor(p.Rec())
	if err != nil {
		return xmltree.Cursor{}, 0, err
	}
	if int(p.Off()) >= len(cur.Buf) {
		return xmltree.Cursor{}, 0, fmt.Errorf("storage: %v offset beyond record of %d bytes", p, len(cur.Buf))
	}
	ref := xmltree.Ref(p.Off())
	s.mu.Lock()
	s.stats.SubtreeReads++
	s.stats.SubtreeBytes += int64(cur.SubtreeEnd(ref) - ref)
	s.mu.Unlock()
	return cur, ref, nil
}

// MarkDeleted tombstones a record. It reports whether the record was
// live (a repeated delete of the same record returns false), and errors
// only when the record number is out of range.
func (s *Store) MarkDeleted(rec uint32) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(rec) >= len(s.offs) {
		return false, fmt.Errorf("storage: record %d out of range (have %d)", rec, len(s.offs))
	}
	if !s.deleted.set(rec) {
		return false, nil
	}
	s.pending = append(s.pending, rec)
	s.tombSnap = nil
	return true, nil
}

// UnmarkDeleted removes a tombstone, reviving the record. Batch rollback
// uses it to undo the deletes of a failed ingest batch, after Rollback
// has taken them out of the open batch.
func (s *Store) UnmarkDeleted(rec uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted.unset(rec) {
		s.tombSnap = nil
	}
}

// IsDeleted reports whether a record carries a tombstone.
func (s *Store) IsDeleted(rec uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleted.has(rec)
}

// NumDeleted returns the number of tombstoned records.
func (s *Store) NumDeleted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleted.n
}

// Mark is the tail of a store that Rollback restores.
type Mark struct {
	records     int
	end, sealed int64
	crc         uint32
	labels      int
	pending     []uint32
}

// Mark returns the store's tail as it is now.
func (s *Store) Mark() Mark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Mark{records: len(s.offs), end: s.end, sealed: s.sealed, crc: s.crc, labels: s.labels, pending: slices.Clone(s.pending)}
}

// Rollback returns the heap to m, discarding the records and any trailer
// appended since and the tombstones of discarded records; the caller
// revives older records deleted since (UnmarkDeleted). A failed ingest
// batch must leave the heap exactly as it was before it. When the file
// cannot be cut back, appends fail from then on, so no later trailer can
// seal the discarded bytes.
func (s *Store) Rollback(m Mark) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.records > len(s.offs) {
		return fmt.Errorf("storage: rolling back to %d records (have %d)", m.records, len(s.offs))
	}
	err := s.f.Truncate(m.end)
	if err != nil {
		err = fmt.Errorf("storage: truncating heap: %w", err)
		s.torn = max(s.end-m.end, 1)
	}
	s.offs = s.offs[:m.records]
	s.lens = s.lens[:m.records]
	s.end, s.sealed, s.crc, s.labels = m.end, m.sealed, m.crc, m.labels
	s.rolls++
	s.pending = append(s.pending[:0], m.pending...)
	if s.deleted.cut(m.records) {
		s.tombSnap = nil
	}
	s.hasCache = false
	s.cacheBuf = nil
	s.lastEnd = -1
	return err
}

// Sync flushes the underlying file.
func (s *Store) Sync() error { return s.f.Sync() }

// Close closes the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// ClearCache drops the one-record read cache of the store and of every
// view frozen from it, so a following query measures cold I/O.
func (s *Store) ClearCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hasCache = false
	s.cacheBuf = nil
	s.lastEnd = -1
	s.rs.cacheEpoch.Add(1)
	s.rs.lastEnd.Store(-1)
}

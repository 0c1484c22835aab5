package storage

import (
	"fmt"
	"os"
	"sync/atomic"

	"github.com/fix-index/fix/internal/xmltree"
)

// readStats counts the I/O of lock-free ReadViews. The fields are atomic
// because views are read concurrently without the store mutex; one
// instance is shared by a Store and every view frozen from it, so the
// Store's merged Stats stay cumulative across generations. lastEnd
// carries the seq/random classification across reads — exact for a
// single reader, approximate when readers interleave (the counters still
// sum correctly; only the seq/random split blurs).
type readStats struct {
	seqReads     atomic.Int64
	randomReads  atomic.Int64
	cachedReads  atomic.Int64
	bytesRead    atomic.Int64
	subtreeReads atomic.Int64
	subtreeBytes atomic.Int64
	lastEnd      atomic.Int64
	// cacheEpoch is bumped by Store.ClearCache; a view's previous read
	// from an older epoch does not make the next one cached, so clearing
	// the store's cache also makes every frozen view read cold.
	cacheEpoch atomic.Int64
}

// load returns the counters as a Stats snapshot.
func (rs *readStats) load() Stats {
	return Stats{
		SeqReads:     rs.seqReads.Load(),
		RandomReads:  rs.randomReads.Load(),
		CachedReads:  rs.cachedReads.Load(),
		BytesRead:    rs.bytesRead.Load(),
		SubtreeReads: rs.subtreeReads.Load(),
		SubtreeBytes: rs.subtreeBytes.Load(),
	}
}

func (rs *readStats) reset() {
	rs.seqReads.Store(0)
	rs.randomReads.Store(0)
	rs.cachedReads.Store(0)
	rs.bytesRead.Store(0)
	rs.subtreeReads.Store(0)
	rs.subtreeBytes.Store(0)
	rs.lastEnd.Store(-1)
}

// ReadView is an immutable snapshot of a Store's record table: a fixed
// record count over the append-only heap file. Reads take no lock — the
// heap is append-only and rollback only ever truncates records newer
// than any published view, so the bytes under a view's records never
// change.
//
// A view frozen over a file that has a region — a mapping of data.heap on
// unix, a MemFile's buffer — holds that region until Release and hands
// out its records where they lie, with no copy. Over any other file (one
// that will not map, a FaultFile, any file off unix) a record is copied
// out with ReadAt into a fresh buffer, and the view keeps the last one:
// refinement probes the same document repeatedly, especially on
// single-document datasets. That cache is an atomic pointer to an
// immutable entry, so a racing fill just loses the publication.
//
// Either way a read of the same record as the view's previous read,
// under the same cache epoch, counts as cached, and every other read as
// sequential or random, so the counters do not depend on the file.
type ReadView struct {
	f    File
	reg  *region // nil: records are copied out of f
	dict *xmltree.Dict
	offs []int64  // immutable after publish
	lens []uint32 // immutable after publish
	rs   *readStats
	// last is the (record, epoch) of the previous read, as lastKey packs
	// it; 0 before the first.
	last atomic.Uint64
	// copied is the copy path's last record and its bytes.
	copied atomic.Pointer[viewCached]
}

// viewCached is one published (record, bytes) entry of the copy path's
// cache, valid while the store's cache epoch is the one it was filled
// under. The fields are immutable after publish; replacing the entry
// swaps the pointer.
type viewCached struct {
	rec   uint32
	buf   []byte
	epoch int64
}

// lastKey packs a record and a cache epoch into a word that is never 0.
func lastKey(rec uint32, epoch int64) uint64 {
	return uint64(epoch)<<33 | uint64(rec)<<1 | 1
}

// Freeze returns an immutable view of the store's current records,
// sharing the offset table's backing array (safe: the table is
// append-only below any published length — see TruncateTo), and holding
// the file's region when it has one. The caller calls Release once it
// has made its last read.
func (s *Store) Freeze() *ReadView {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.offs)
	v := &ReadView{
		f:    s.f,
		dict: s.dict,
		offs: s.offs[:n:n],
		lens: s.lens[:n:n],
		rs:   &s.rs,
	}
	if f, ok := s.f.(inPlace); ok {
		v.reg = f.pinRegion()
	}
	return v
}

// Release lets go of the region the view reads in place, which goes
// once no file or view holds it. No read of the view may follow.
func (v *ReadView) Release() {
	if v.reg != nil {
		v.reg.release()
	}
}

// Dict returns the label dictionary used to encode records.
func (v *ReadView) Dict() *xmltree.Dict { return v.dict }

// NumRecords returns the number of records at freeze time.
func (v *ReadView) NumRecords() int { return len(v.offs) }

// Stats returns the cumulative ReadView counters of the owning store.
// It is lock-free; the query trace differences it around the
// fetch/refinement phases.
func (v *ReadView) Stats() Stats { return v.rs.load() }

// Record returns the raw bytes of a record, with I/O accounting. The
// bytes are shared — with the heap's mapping, or with the view's cache
// and other callers — and must not be modified. Bytes in a mapping are
// valid until the view is released, and touching them can fault when
// something outside the process truncates the file: a caller that
// navigates them does so under GuardFault.
func (v *ReadView) Record(rec uint32) ([]byte, error) {
	if int(rec) >= len(v.offs) {
		return nil, fmt.Errorf("storage: record %d out of range (view has %d)", rec, len(v.offs))
	}
	if v.reg == nil {
		return v.copyRecord(rec)
	}
	if c := v.reg.closed; c != nil && c.Load() {
		return nil, fmt.Errorf("storage: reading record %d: %w", rec, os.ErrClosed)
	}
	off := v.offs[rec] + 4
	end := off + int64(v.lens[rec])
	if key := lastKey(rec, v.rs.cacheEpoch.Load()); v.last.Load() == key {
		v.rs.cachedReads.Add(1)
	} else {
		v.last.Store(key)
		v.count(v.rs.lastEnd.Swap(end) == v.offs[rec], end-off)
	}
	return v.reg.mem[off:end:end], nil
}

// count adds a read of n bytes to the sequential or the random reads. The
// caller classifies it with one swap of lastEnd, in issue order, so
// concurrent readers blur the split only when two of them race that one
// instruction.
func (v *ReadView) count(seq bool, n int64) {
	if seq {
		v.rs.seqReads.Add(1)
	} else {
		v.rs.randomReads.Add(1)
	}
	v.rs.bytesRead.Add(n)
}

// copyRecord is Record over a file with no region: a read copies the
// record into a fresh buffer, and the view keeps the last one.
func (v *ReadView) copyRecord(rec uint32) ([]byte, error) {
	epoch := v.rs.cacheEpoch.Load()
	if c := v.copied.Load(); c != nil && c.rec == rec && c.epoch == epoch {
		v.rs.cachedReads.Add(1)
		return c.buf, nil
	}
	off := v.offs[rec] + 4
	n := int64(v.lens[rec])
	seq := v.rs.lastEnd.Swap(off+n) == v.offs[rec]
	buf := make([]byte, n)
	if _, err := v.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: reading record %d: %w", rec, err)
	}
	v.count(seq, n)
	v.copied.Store(&viewCached{rec: rec, buf: buf, epoch: epoch})
	return buf, nil
}

// Cursor returns a navigation cursor over the given record.
func (v *ReadView) Cursor(rec uint32) (xmltree.Cursor, error) {
	buf, err := v.Record(rec)
	if err != nil {
		return xmltree.Cursor{}, err
	}
	return xmltree.Cursor{Buf: buf, Dict: v.dict}, nil
}

// ReadSubtree resolves a pointer to a cursor positioned at the
// pointed-to node, mirroring Store.ReadSubtree's cost accounting.
func (v *ReadView) ReadSubtree(p Pointer) (xmltree.Cursor, xmltree.Ref, error) {
	cur, err := v.Cursor(p.Rec())
	if err != nil {
		return xmltree.Cursor{}, 0, err
	}
	if int(p.Off()) >= len(cur.Buf) {
		return xmltree.Cursor{}, 0, fmt.Errorf("storage: %v offset beyond record of %d bytes", p, len(cur.Buf))
	}
	ref := xmltree.Ref(p.Off())
	v.rs.subtreeReads.Add(1)
	v.rs.subtreeBytes.Add(int64(cur.SubtreeEnd(ref) - ref))
	return cur, ref, nil
}

// TombSet is an immutable snapshot of a store's tombstones: a bitmap over
// record numbers, which are dense. The nil TombSet is valid and empty.
type TombSet struct {
	bits []uint64 // immutable after publish
	n    int      // immutable after publish
}

// TombSnapshot returns the current tombstone set as an immutable
// snapshot. It is the previous call's snapshot for as long as no
// tombstone has been set or cleared since, so publishing a generation
// costs nothing here unless a delete came in between.
func (s *Store) TombSnapshot() *TombSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tombSnap == nil {
		var bits []uint64
		if len(s.deleted) > 0 {
			bits = make([]uint64, (len(s.offs)+63)/64)
			for r := range s.deleted {
				bits[r/64] |= 1 << (r % 64)
			}
		}
		s.tombSnap = &TombSet{bits: bits, n: len(s.deleted)}
	}
	return s.tombSnap
}

// Has reports whether the record carried a tombstone at snapshot time.
func (t *TombSet) Has(rec uint32) bool {
	return t != nil && int(rec/64) < len(t.bits) && t.bits[rec/64]&(1<<(rec%64)) != 0
}

// Len returns the number of tombstoned records in the snapshot.
func (t *TombSet) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

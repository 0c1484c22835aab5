package storage

import (
	"fmt"
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
	// cacheEpoch is bumped by Store.ClearCache; a view's cached record
	// from an older epoch is stale, so clearing the store's cache also
	// makes every frozen view read cold.
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
// change. The one-record cache mirrors Store's (refinement probes the
// same document repeatedly, especially on single-document datasets) but
// is an atomic pointer to an immutable pair instead of mutex-guarded
// state: a racing fill just loses the publication, never corrupts it.
type ReadView struct {
	f    File
	dict *xmltree.Dict
	offs []int64  // immutable after publish
	lens []uint32 // immutable after publish
	rs   *readStats
	last atomic.Pointer[viewCached]
}

// viewCached is one published (record, bytes) cache entry, valid while
// the store's cache epoch is the one it was filled under. The fields
// are immutable after publish; replacing the entry swaps the pointer.
type viewCached struct {
	rec   uint32
	buf   []byte
	epoch int64
}

// Freeze returns an immutable view of the store's current records,
// sharing the offset table's backing array (safe: the table is
// append-only below any published length — see TruncateTo).
func (s *Store) Freeze() *ReadView {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.offs)
	return &ReadView{
		f:    s.f,
		dict: s.dict,
		offs: s.offs[:n:n],
		lens: s.lens[:n:n],
		rs:   &s.rs,
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
// returned buffer is shared (with the cache and other callers) and must
// not be modified.
func (v *ReadView) Record(rec uint32) ([]byte, error) {
	if int(rec) >= len(v.offs) {
		return nil, fmt.Errorf("storage: record %d out of range (view has %d)", rec, len(v.offs))
	}
	epoch := v.rs.cacheEpoch.Load()
	if c := v.last.Load(); c != nil && c.rec == rec && c.epoch == epoch {
		v.rs.cachedReads.Add(1)
		return c.buf, nil
	}
	off := v.offs[rec] + 4
	n := v.lens[rec]
	// Classify in issue order, before the read: concurrent readers then
	// blur the seq/random split only when two of them race this one
	// instruction, not whenever their reads overlap.
	seq := v.rs.lastEnd.Swap(off+int64(n)) == v.offs[rec]
	buf := make([]byte, n)
	if _, err := v.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: reading record %d: %w", rec, err)
	}
	if seq {
		v.rs.seqReads.Add(1)
	} else {
		v.rs.randomReads.Add(1)
	}
	v.rs.bytesRead.Add(int64(n))
	v.last.Store(&viewCached{rec: rec, buf: buf, epoch: epoch})
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

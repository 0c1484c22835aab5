package storage

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
	"sync/atomic"

	"github.com/fix-index/fix/internal/xmltree"
)

// readStats counts the I/O of lock-free ReadViews. The fields are atomic
// because views are read concurrently without the store mutex; one
// instance is shared by a Store and every view frozen from it, so the
// Store's merged Stats stay cumulative across generations. A ReadPass
// tallies its reads locally and adds them here once, at Flush, so a
// query pays these atomics per pass rather than per record. lastEnd
// carries the seq/random classification across reads and passes — exact
// for a single reader, approximate when readers interleave (the counters
// still sum correctly; only the seq/random split blurs).
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
// sequential or random, so the counters do not depend on the file. A
// query reads through a ReadPass, which adds its counts to the store's
// once, when it flushes; Record, Cursor and ReadSubtree are passes of one
// read.
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
	p := v.Pass()
	buf, err := p.Record(rec)
	p.Flush()
	return buf, err
}

// Cursor returns a navigation cursor over the given record.
func (v *ReadView) Cursor(rec uint32) (xmltree.Cursor, error) {
	p := v.Pass()
	cur, err := p.Cursor(rec)
	p.Flush()
	return cur, err
}

// ReadSubtree resolves a pointer to a cursor positioned at the
// pointed-to node, mirroring Store.ReadSubtree's cost accounting.
func (v *ReadView) ReadSubtree(ptr Pointer) (xmltree.Cursor, xmltree.Ref, error) {
	p := v.Pass()
	cur, ref, err := p.ReadSubtree(ptr)
	p.Flush()
	return cur, ref, err
}

// ReadPass reads records of one view for one query pass and tallies the
// I/O locally: a read classifies itself against the pass's own copy of
// the view's previous read and of the store's last read position, under
// the cache epoch read once when the pass began, exactly as a read of the
// view would; Flush adds the tally to the store's counters and hands the
// position back. A ReadPass is a value, not safe for concurrent use; its
// reads follow the view's rules (see ReadView.Record).
type ReadPass struct {
	v       *ReadView
	epoch   int64
	last    uint64 // the previous read, as lastKey packs it; 0: none
	lastEnd int64  // where the previous read that was not cached ended
	moved   bool   // a read that was not cached: last and lastEnd changed
	copied  *viewCached
	n       Stats // what the pass read since its last Flush
}

// Pass starts a pass over the view. The caller calls Flush once its
// last read is done.
func (v *ReadView) Pass() ReadPass {
	p := ReadPass{v: v, epoch: v.rs.cacheEpoch.Load(), lastEnd: v.rs.lastEnd.Load()}
	if v.reg != nil {
		p.last = v.last.Load()
	} else if c := v.copied.Load(); c != nil {
		p.last, p.copied = lastKey(c.rec, c.epoch), c
	}
	return p
}

// Record returns the raw bytes of a record, as ReadView.Record does.
func (p *ReadPass) Record(rec uint32) ([]byte, error) {
	v := p.v
	if int(rec) >= len(v.offs) {
		return nil, fmt.Errorf("storage: record %d out of range (view has %d)", rec, len(v.offs))
	}
	if v.reg == nil {
		return p.copyRecord(rec)
	}
	if c := v.reg.closed; c != nil && c.Load() {
		return nil, fmt.Errorf("storage: reading record %d: %w", rec, os.ErrClosed)
	}
	off := v.offs[rec] + 4
	end := off + int64(v.lens[rec])
	if key := lastKey(rec, p.epoch); p.last == key {
		p.n.CachedReads++
	} else {
		p.last = key
		p.count(rec, end)
	}
	return v.reg.mem[off:end:end], nil
}

// count adds a read of rec, which ends at end, to the sequential or the
// random reads: sequential when it starts where the previous read ended.
func (p *ReadPass) count(rec uint32, end int64) {
	start := p.v.offs[rec]
	if p.lastEnd == start {
		p.n.SeqReads++
	} else {
		p.n.RandomReads++
	}
	p.n.BytesRead += end - start - 4
	p.lastEnd, p.moved = end, true
}

// copyRecord is Record over a file with no region: a read copies the
// record into a fresh buffer, and the view keeps the last one.
func (p *ReadPass) copyRecord(rec uint32) ([]byte, error) {
	key := lastKey(rec, p.epoch)
	if p.last == key {
		p.n.CachedReads++
		return p.copied.buf, nil
	}
	off := p.v.offs[rec] + 4
	buf := make([]byte, p.v.lens[rec])
	if _, err := p.v.f.ReadAt(buf, off); err != nil {
		p.lastEnd, p.moved = off+int64(len(buf)), true
		return nil, fmt.Errorf("storage: reading record %d: %w", rec, err)
	}
	p.last, p.copied = key, &viewCached{rec: rec, buf: buf, epoch: p.epoch}
	p.count(rec, off+int64(len(buf)))
	return buf, nil
}

// Cursor returns a navigation cursor over the given record.
func (p *ReadPass) Cursor(rec uint32) (xmltree.Cursor, error) {
	buf, err := p.Record(rec)
	if err != nil {
		return xmltree.Cursor{}, err
	}
	return xmltree.Cursor{Buf: buf, Dict: p.v.dict}, nil
}

// ReadSubtree resolves a pointer to a cursor positioned at the
// pointed-to node, counting one subtree read of the node's encoded size.
func (p *ReadPass) ReadSubtree(ptr Pointer) (xmltree.Cursor, xmltree.Ref, error) {
	cur, err := p.Cursor(ptr.Rec())
	if err != nil {
		return xmltree.Cursor{}, 0, err
	}
	if int(ptr.Off()) >= len(cur.Buf) {
		return xmltree.Cursor{}, 0, fmt.Errorf("storage: %v offset beyond record of %d bytes", ptr, len(cur.Buf))
	}
	ref := xmltree.Ref(ptr.Off())
	p.n.SubtreeReads++
	p.n.SubtreeBytes += int64(cur.SubtreeEnd(ref) - ref)
	return cur, ref, nil
}

// Flush adds what the pass has read since its last Flush to the store's
// counters and hands the view its previous read and the store its read
// position. The pass may read on and flush again.
func (p *ReadPass) Flush() {
	rs := p.v.rs
	addNonZero(&rs.seqReads, p.n.SeqReads)
	addNonZero(&rs.randomReads, p.n.RandomReads)
	addNonZero(&rs.cachedReads, p.n.CachedReads)
	addNonZero(&rs.bytesRead, p.n.BytesRead)
	addNonZero(&rs.subtreeReads, p.n.SubtreeReads)
	addNonZero(&rs.subtreeBytes, p.n.SubtreeBytes)
	p.n = Stats{}
	if !p.moved {
		return
	}
	p.moved = false
	rs.lastEnd.Store(p.lastEnd)
	if p.v.reg != nil {
		p.v.last.Store(p.last)
	} else if p.copied != nil {
		p.v.copied.Store(p.copied)
	}
}

// addNonZero adds n to c, skipping the atomic instruction when n is 0.
func addNonZero(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// TombSet is an immutable snapshot of a store's tombstones: a bitmap over
// record numbers, which are dense. The nil TombSet is valid and empty.
type TombSet struct {
	bits []uint64 // immutable after publish
	n    int      // immutable after publish
}

// TombSnapshot returns the current tombstone set as an immutable
// snapshot: a copy of the store's bitmap, whatever the number of
// tombstones in it. It is the previous call's snapshot for as long as no
// tombstone has been set or cleared since, so publishing a generation
// costs nothing here unless a delete came in between.
func (s *Store) TombSnapshot() *TombSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tombSnap == nil {
		s.tombSnap = &TombSet{bits: slices.Clone(s.deleted.bits), n: s.deleted.n}
	}
	return s.tombSnap
}

// tombstones is the store's own tombstone set, which it changes in place: a
// bitmap over record numbers and the number of bits set.
type tombstones struct {
	bits []uint64
	n    int
}

func (t *tombstones) has(rec uint32) bool {
	return int(rec/64) < len(t.bits) && t.bits[rec/64]&(1<<(rec%64)) != 0
}

// set tombstones rec and reports whether it was live.
func (t *tombstones) set(rec uint32) bool {
	if t.has(rec) {
		return false
	}
	for int(rec/64) >= len(t.bits) {
		t.bits = append(t.bits, 0)
	}
	t.bits[rec/64] |= 1 << (rec % 64)
	t.n++
	return true
}

// unset clears the tombstone of rec and reports whether it had one.
func (t *tombstones) unset(rec uint32) bool {
	if !t.has(rec) {
		return false
	}
	t.bits[rec/64] &^= 1 << (rec % 64)
	t.n--
	return true
}

// cut clears the tombstones of the records numbered records and above and
// reports whether there were any.
func (t *tombstones) cut(records int) bool {
	before, w := t.n, (records+63)/64
	for _, b := range t.bits[min(w, len(t.bits)):] {
		t.n -= bits.OnesCount64(b)
	}
	t.bits = t.bits[:min(w, len(t.bits))]
	if r := records % 64; r != 0 && w <= len(t.bits) {
		keep := uint64(1)<<r - 1
		t.n -= bits.OnesCount64(t.bits[w-1] &^ keep)
		t.bits[w-1] &= keep
	}
	return t.n != before
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

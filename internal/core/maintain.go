package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Index maintenance. The paper builds once and queries (its update story
// is future work); these operations keep the index usable as a live
// structure: InsertDocuments indexes newly appended records without a
// rebuild, DeleteDocuments removes records' entries.

// ErrRebuildRequired marks maintenance failures that only a full index
// rebuild can clear: inserting into a degraded index, or inserting a
// document whose new element labels collide with the value-hash range a
// value index fixed at build time. Callers match it with errors.Is and
// respond by degrading (the data stays durable and queryable through the
// scan fallback) rather than retrying.
var ErrRebuildRequired = errors.New("core: index rebuild required")

// InsertDocuments is InsertDocumentsCtx without cancellation.
func (ix *Index) InsertDocuments(recs ...uint32) error {
	return ix.InsertDocumentsCtx(context.Background(), recs)
}

// InsertDocumentsCtx indexes a batch of records appended to the primary
// store since the index was built: the first three phases of BuildCtx's
// pipeline (extract) take the records in argument order, and addPostings
// files their entries into their runs. For the group-committed batches of
// streaming ingest it
// turns the per-document eigenvalue computation — by far the dominant
// indexing cost — into parallel work instead of serializing it under the
// write lock.
//
// Any failure leaves previously filed entries in place, so callers must
// treat an error as grounds to degrade the index. Inserting into a
// degraded index, or inserting documents whose new element labels collide
// with the value-hash range a value index fixed at build time, fails with
// ErrRebuildRequired.
func (ix *Index) InsertDocumentsCtx(ctx context.Context, recs []uint32) error {
	if len(recs) == 0 {
		return nil
	}
	if err := ix.Health(); err != nil {
		return fmt.Errorf("%w: cannot index into a degraded index: %w", ErrRebuildRequired, err)
	}
	if ix.opts.Values && ix.dict.MaxID() > ix.vh.alpha {
		// New element labels would collide with the value-hash range
		// (α, α+β] fixed at build time.
		return fmt.Errorf("%w: new element labels appeared after a value index was built", ErrRebuildRequired)
	}
	units := make([]*buildUnit, len(recs))
	if err := ix.extract(ctx, recs, units, &phaseTimers{}); err != nil {
		return err
	}
	var entries []pendingEntry
	for _, u := range units {
		if u == nil {
			continue
		}
		if u.depth > ix.maxDocDepth {
			ix.maxDocDepth = u.depth
		}
		for _, e := range u.entries {
			if e.f.Oversize {
				ix.oversize++
			}
			entries = append(entries, e)
		}
	}
	if ix.units == nil {
		ix.units = newUnitReader(ix.store, appendUnitBytes)
	}
	for _, u := range units {
		if u != nil {
			ix.units.hold(u.rec, u.buf)
		}
	}
	defer ix.units.release()
	return ix.addPostings(ctx, entries)
}

// addPostings files entries into the B-tree run by run. Records are
// appended, so a run's new pointers lie above every pointer it holds: they
// go onto the end of its last chunk, one Put, or, once that is full, into
// new chunks after it — the chunks a bulk build of the same postings packs.
// A pointer that does not, a record indexed already, is an error. A posting
// that joins a chunk is compared with the chunk's last unit only as deep as
// the chunk's units agree, which it lowers to where they differ, so the
// agreement is the bulk build's too; the comparisons read ix.units, and
// every 64 of them poll ctx.
func (ix *Index) addPostings(ctx context.Context, entries []pendingEntry) (err error) {
	slices.SortFunc(entries, func(a, b pendingEntry) int {
		return cmp.Or(cmp.Compare(a.label, b.label), cmp.Compare(encodeFloat(a.f.Sigma), encodeFloat(b.f.Sigma)), cmp.Compare(a.ptr, b.ptr))
	})
	limit := ix.chunkLimit()
	key := make([]byte, keySize)
	var c chunk
	var val []byte
	compared := 0
	for lo := 0; lo < len(entries); {
		label, sigma := entries[lo].label, encodeFloat(entries[lo].f.Sigma)
		hi := lo + 1
		for hi < len(entries) && entries[hi].label == label && encodeFloat(entries[hi].f.Sigma) == sigma {
			hi++
		}
		run := entries[lo:hi]
		lo = hi
		from, to := runBounds(label, sigma)
		k, v, found, err := ix.bt.Last(from, to)
		if err != nil {
			return err
		}
		c.reset()
		loaded := 0 // postings of the chunk Put last, which the run holds already
		if found {
			if !c.load(keyPointer(k), v) {
				return errBadValue(k, v)
			}
			if run[0].ptr <= c.last {
				return fmt.Errorf("core: entry at %v is not above %v, which its run holds: the record was indexed already", run[0].ptr, c.last)
			}
			loaded = c.n
		}
		for _, e := range run {
			if last := c.last; c.fits(e.ptr, e.f.Sketch, limit) {
				if c.n > 1 && c.alike > 0 {
					if compared++; compared%64 == 0 {
						if err := ctx.Err(); err != nil {
							return err
						}
					}
					if c.alike, err = ix.units.agree(last, e.ptr, c.alike); err != nil {
						return err
					}
				}
				continue
			}
			if c.n > loaded {
				putKey(key, label, sigma, c.first)
				if err := ix.bt.Put(key, c.appendTo(val[:0])); err != nil {
					return err
				}
			}
			c.reset()
			c.add(e.ptr, e.f.Sketch)
			loaded = 0
		}
		putKey(key, label, sigma, c.first)
		if err := ix.bt.Put(key, c.appendTo(val[:0])); err != nil {
			return err
		}
		ix.entries.Add(int64(len(run)))
	}
	return nil
}

// DeleteDocuments removes every index entry pointing into one of the
// records recs. The records themselves stay in the primary store (records
// are immutable). It is one walk of every chunk of the index however many
// records are named, so a batch of deletes pays for it once: a chunk whose
// first pointer lies past every doomed record is passed over on its key, the
// others are decoded, and one that holds a doomed posting is written anew
// without it — under a new key when its first posting went — or deleted
// once it holds none.
func (ix *Index) DeleteDocuments(recs []uint32) (int, error) {
	if err := ix.Health(); err != nil {
		return 0, fmt.Errorf("%w: cannot delete from a degraded index: %w", ErrRebuildRequired, err)
	}
	doomed := slices.Clone(recs)
	slices.Sort(doomed)
	type rewrite struct{ old, key, val []byte } // val nil: the chunk goes
	var edits []rewrite
	var c chunk
	var bad error
	removed := 0
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != keySize {
			bad = errBadKey(k)
			return false
		}
		first := keyPointer(k)
		i, _ := slices.BinarySearch(doomed, first.Rec())
		if i == len(doomed) {
			return true
		}
		r := openPostings(first, v)
		gone := 0
		// The rewritten chunk keeps the sketch: a superset of what its
		// postings hold stays sound, and a rebuild writes it anew. It keeps
		// the agreement too: what is left of the chunk agrees at least as
		// deeply.
		c.reset()
		for c.sketch = r.sketch; r.next(); {
			for i < len(doomed) && doomed[i] < r.ptr.Rec() {
				i++
			}
			if i < len(doomed) && doomed[i] == r.ptr.Rec() {
				gone++
				continue
			}
			c.add(r.ptr, 0)
		}
		if !r.ok() {
			bad = errBadValue(k, v)
			return false
		}
		if gone > 0 {
			c.alike = r.alike
			e := rewrite{old: slices.Clone(k)}
			if c.n > 0 {
				e.key = make([]byte, keySize)
				putKey(e.key, binary.BigEndian.Uint32(k), binary.BigEndian.Uint64(k[4:]), c.first)
				e.val = c.appendTo(nil)
			}
			edits = append(edits, e)
			removed += gone
		}
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return 0, err
	}
	for _, e := range edits {
		if e.val == nil || !bytes.Equal(e.key, e.old) {
			ok, err := ix.bt.Delete(e.old)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, fmt.Errorf("core: entry vanished during delete")
			}
		}
		if e.val != nil {
			if err := ix.bt.Put(e.key, e.val); err != nil {
				return 0, err
			}
		}
	}
	ix.entries.Add(-int64(removed))
	return removed, nil
}

// DeleteDocument is DeleteDocuments for one record.
func (ix *Index) DeleteDocument(rec uint32) (int, error) {
	return ix.DeleteDocuments([]uint32{rec})
}

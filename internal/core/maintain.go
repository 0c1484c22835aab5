package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/fix-index/fix/internal/bisim"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// Index maintenance. The paper builds once and queries (its update story
// is future work); these operations keep the index usable as a live
// structure: InsertDocument indexes a newly appended record without a
// rebuild, DeleteDocument removes a record's entries.

// ErrRebuildRequired marks maintenance failures that only a full index
// rebuild can clear: inserting into a degraded index, or inserting a
// document whose new element labels collide with the value-hash range a
// value index fixed at build time. Callers match it with errors.Is and
// respond by degrading (the data stays durable and queryable through the
// scan fallback) rather than retrying.
var ErrRebuildRequired = errors.New("core: index rebuild required")

// InsertDocument indexes the record rec, which must have been appended to
// the primary store after the index was built.
func (ix *Index) InsertDocument(rec uint32) error {
	if err := ix.Health(); err != nil {
		return fmt.Errorf("%w: cannot index into a degraded index: %w", ErrRebuildRequired, err)
	}
	if ix.opts.Values && ix.dict.MaxID() > ix.vh.alpha {
		// New element labels would collide with the value-hash range
		// (α, α+β] fixed at build time.
		return fmt.Errorf("%w: new element labels appeared after a value index was built", ErrRebuildRequired)
	}
	cur, err := ix.store.Cursor(rec)
	if err != nil {
		return err
	}
	var vh bisim.ValueHash
	if ix.opts.Values {
		vh = ix.vh.hash
	}
	base := uint64(storage.MakePointer(rec, 0))
	stream := bisim.FromXML(xmltree.NewCursorStream(cur, 0, base), ix.dict, vh)
	type elem struct {
		v   *bisim.Vertex
		ptr uint64
	}
	var elems []elem
	g, err := bisim.Build(stream, func(v *bisim.Vertex, ptr uint64) {
		elems = append(elems, elem{v, ptr})
	})
	if err != nil {
		return err
	}
	if g.Root == nil {
		return nil
	}
	if d := g.MaxDepth(); d > ix.maxDocDepth {
		ix.maxDocDepth = d
	}
	insert := ix.insertLive
	if ix.opts.DepthLimit == 0 {
		f, ok, err := graphFeatures(g, ix.enc, true)
		if err != nil {
			return err
		}
		if !ok || (ix.opts.EdgeBudget > 0 && g.NumEdges() > ix.opts.EdgeBudget) {
			f = oversizeFeatures()
		}
		var spec []float64
		if !f.Oversize {
			spec = graphSpectrumTail(g, ix.enc, ix.opts.SpectrumK)
		}
		return insert(g.Root.Label, f, spec, storage.Pointer(base))
	}
	for _, e := range elems {
		f, spec, err := subpatternFeatures(e.v, ix.opts.DepthLimit, ix.opts.EdgeBudget, ix.enc, ix.opts.SpectrumK, true)
		if err != nil {
			return err
		}
		if err := insert(e.v.Label, f, spec, storage.Pointer(e.ptr)); err != nil {
			return err
		}
	}
	return nil
}

// insertLive inserts one computed entry through the maintenance path —
// the one place left that Puts into the B-tree.
func (ix *Index) insertLive(label uint32, f Features, spec []float64, ptr storage.Pointer) error {
	v := entryValue{primary: ptr, spectrum: spec}
	if f.Oversize {
		ix.oversize++
	}
	k := entryKey{label: label, max: f.Max, min: f.Min, seq: ix.seq}
	ix.seq++
	return ix.bt.Put(k.encode(), v.encode())
}

// InsertDocumentsCtx indexes a batch of newly appended records through
// the first three phases of BuildCtx's pipeline (extract), taking the
// records in argument order, and then Puts the entries into the B-tree
// one by one in that order. For a batch of one it costs the same as
// InsertDocument; for the
// group-committed batches of streaming ingest it turns the per-document
// eigenvalue computation — by far the dominant indexing cost — into
// parallel work instead of serializing it under the write lock.
//
// The same preconditions as InsertDocument apply, checked once for the
// whole batch; any failure leaves previously merged entries in place, so
// callers must treat an error as grounds to degrade the index (exactly
// as a mid-batch InsertDocument failure would).
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
	for _, u := range units {
		if u == nil {
			continue
		}
		if u.depth > ix.maxDocDepth {
			ix.maxDocDepth = u.depth
		}
		for _, e := range u.entries {
			if err := ix.insertLive(e.label, e.f, e.spec, e.ptr); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeleteDocuments removes every index entry pointing into one of the
// records recs. The records themselves stay in the primary store (records
// are immutable).
// It is one scan of the whole index however many records are named, so a
// batch of deletes pays for it once. (A document's features could be
// computed again — edge weights are append-only and never change — but its
// keys end in sequence numbers nothing records per document, so each would
// still have to be looked for among the entries of equal features.)
func (ix *Index) DeleteDocuments(recs []uint32) (int, error) {
	if err := ix.Health(); err != nil {
		return 0, fmt.Errorf("%w: cannot delete from a degraded index: %w", ErrRebuildRequired, err)
	}
	doomed := slices.Clone(recs)
	slices.Sort(doomed)
	// A value begins with its record's uvarint, so an entry whose first
	// byte begins no doomed record's is none of theirs and is passed over
	// undecoded: the scan costs a table lookup per entry, not a decode.
	var lead [256]bool
	var spelled [binary.MaxVarintLen32]byte
	for _, rec := range doomed {
		lead[binary.AppendUvarint(spelled[:0], uint64(rec))[0]] = true
	}
	var keys [][]byte
	var bad error
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		if len(v) > 0 && !lead[v[0]] {
			return true
		}
		ev, ok := decodeValue(v)
		if !ok {
			bad = errBadValue(k, v)
			return false
		}
		if _, ok := slices.BinarySearch(doomed, ev.primary.Rec()); ok {
			keys = append(keys, append([]byte(nil), k...))
		}
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		ok, err := ix.bt.Delete(k)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("core: entry vanished during delete")
		}
	}
	return len(keys), nil
}

// DeleteDocument is DeleteDocuments for one record.
func (ix *Index) DeleteDocument(rec uint32) (int, error) {
	return ix.DeleteDocuments([]uint32{rec})
}

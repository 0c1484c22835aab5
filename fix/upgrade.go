package fix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// The upgrade from the format before batch trailers, which goes with the
// next format generation. A directory of that format holds a FIXSTOR1
// heap of records only, fix.tomb — the deleted records as of the last
// checkpoint — and, once streaming ingest had run, fix.ingest: the
// acknowledged operations since the last checkpoint, as raw XML, which
// DB.Close did not absorb. Open converts it once, in this order:
//
//  1. cut the heap back to the log's base, or, without a log, to its
//     last whole record (oldHeapEnd; storage.ConvertStore);
//  2. seal it with one trailer holding fix.tomb's deletes, and write the
//     new heap magic;
//  3. replay the log's operations through the group commit;
//  4. checkpoint;
//  5. remove fix.ingest, and fix.tomb last.
//
// A crash at any step converts again: until step 5 the log still says
// where the heap's records of that format end, and its operations are
// replayed onto the heap cut back there. Once fix.ingest is gone, a
// remaining fix.tomb beside a converted heap only has to be removed.

// tombName is the tombstone sidecar of the format before batch trailers.
const tombName = "fix.tomb"

// convert converts a directory of the format before batch trailers over
// its heap file f and reports whether it did; a directory of this format
// is left to Open. On success db holds the converted store and index.
func (db *DB) convert(f storage.File) (bool, error) {
	var (
		base        int64
		baseRecords uint32
		ops         []core.IngestOp
		haveLog     bool
	)
	if lf, err := fileOpen(filepath.Join(db.dir, core.IngestLogName)); err == nil {
		baseRecords, base, ops, haveLog, err = core.ReadIngestLog(lf)
		if _ = lf.Close(); err != nil {
			return false, fmt.Errorf("fix: reading ingest log: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return false, err
	}
	_, err := os.Stat(filepath.Join(db.dir, "fix.meta"))
	hasIndex := err == nil
	if !haveLog {
		hdr := make([]byte, 8)
		if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != "FIXSTOR1" {
			return false, err
		}
		if base, err = db.oldHeapEnd(f, hasIndex); err != nil {
			return false, err
		}
	}
	if _, err := os.Stat(filepath.Join(db.dir, "labels.dict")); err != nil {
		return false, fmt.Errorf("fix: converting %s: %w", db.dir, err)
	}
	var tombs []uint32
	if data, err := os.ReadFile(filepath.Join(db.dir, tombName)); err == nil {
		if tombs, err = storage.DecodeTombstones(data); err != nil {
			return false, fmt.Errorf("fix: loading tombstones: %w", err)
		}
		// A checkpoint that crashed between rewriting fix.tomb and
		// resetting the log left tombstones of records past the log's
		// base; the heap is cut back there, and the log still holds those
		// deletes.
		tombs = slices.DeleteFunc(tombs, func(r uint32) bool { return haveLog && r >= baseRecords })
	} else if !os.IsNotExist(err) {
		return false, err
	}
	if db.store, err = storage.ConvertStore(f, db.dict, base, tombs); err != nil {
		return false, err
	}
	// A checkpoint commits the index and then resets the log; a crash
	// between the two leaves a log whose every operation the committed
	// index holds already. It shows in the index covering the documents
	// the log is about to re-create: they go to the heap before the index
	// opens, so that it finds the store it was committed over, and the
	// log is kept from the index.
	absorbed := false
	if adds := countAdds(ops); hasIndex && adds > 0 {
		covered, err := core.CommittedRecords(db.dir)
		if err != nil {
			return false, fmt.Errorf("fix: opening index: %w", err)
		}
		absorbed = covered == db.store.NumRecords()+adds
	}
	if absorbed {
		if err := db.replayOldLog(ops); err != nil {
			return false, err
		}
	}
	if hasIndex {
		if db.index, err = core.Open(db.store, db.dir); err != nil {
			return false, fmt.Errorf("fix: opening index: %w", err)
		}
	}
	if !absorbed {
		if err := db.replayOldLog(ops); err != nil {
			return false, err
		}
	}
	// The checkpoint: a degraded index — an old format's, say — refuses
	// Save, and keeps the commit it had until RebuildIndex.
	if err := db.commitHeap(); err != nil {
		return false, err
	}
	if db.index != nil && db.index.Health() == nil {
		if err := db.index.Save(); err != nil {
			return false, err
		}
	}
	db.checkpointed()
	return true, db.dropOldFiles()
}

// oldHeapEnd returns where the records of f, a FIXSTOR1 heap without an
// ingest log, end. Only Save acknowledged a document then, syncing the
// heap and then committing the index's record count, so a record at or
// past that count that runs past the end of the file is an append a crash
// cut short, and the conversion cuts it. One the index covers, or any
// when no index records a count, is damage: Open fails with ErrCorrupt
// and leaves the heap as it found it.
func (db *DB) oldHeapEnd(f storage.File, hasIndex bool) (int64, error) {
	records, end, err := storage.OldRecords(f)
	if err != nil {
		return 0, err
	}
	if size, err := f.Size(); err != nil || end == size {
		return end, err
	}
	if !hasIndex {
		return 0, fmt.Errorf("%w: heap: record %d runs past the end of data.heap, and without an index nothing records how many documents were saved", ErrCorrupt, records)
	}
	committed, err := core.CommittedRecords(db.dir)
	if err != nil {
		return 0, fmt.Errorf("fix: opening index: %w", err)
	}
	if records < committed {
		return 0, fmt.Errorf("%w: heap: record %d runs past the end of data.heap, and the index covers %d saved documents", ErrCorrupt, records, committed)
	}
	return end, nil
}

// countAdds returns how many of ops add a document.
func countAdds(ops []core.IngestOp) int {
	n := 0
	for _, op := range ops {
		if op.Kind == core.IngestOpInsert {
			n++
		}
	}
	return n
}

// replayOldLog is replayOldLogCtx with context.Background(): Open, which
// runs it, takes no context.
func (db *DB) replayOldLog(ops []core.IngestOp) error {
	return db.replayOldLogCtx(context.Background(), ops)
}

// replayOldLogCtx commits the logged operations as one durable batch.
// Each insert must land on the record the log assigned it: the heap was
// cut back to the log's base, and the dictionary holds every label the
// original appends assigned, in order.
func (db *DB) replayOldLogCtx(ctx context.Context, ops []core.IngestOp) error {
	if len(ops) == 0 {
		return nil
	}
	sub := &submission{ops: make([]Op, len(ops))}
	// Every parse bound is off: the limits a logged document was admitted
	// under were not persisted, and the defaults could reject it.
	off := xmltree.ParseLimits{MaxDepth: -1, MaxTokenBytes: -1, MaxChildren: -1, MaxNodes: -1, MaxBytes: -1}
	for i, op := range ops {
		sub.ops[i] = DeleteOp(op.Rec)
		if op.Kind == core.IngestOpInsert {
			n, err := xmltree.ParseWithLimits(bytes.NewReader(op.XML), off)
			if err != nil {
				return fmt.Errorf("fix: replaying ingest log op %d: document no longer parses: %w", i, err)
			}
			sub.ops[i] = Op{tree: n}
		}
	}
	if _, err := db.commitBatch(ctx, []*submission{sub}, true); err != nil || sub.err != nil {
		return fmt.Errorf("fix: replaying ingest log: %w", errors.Join(err, sub.err))
	}
	for i, op := range ops {
		if sub.recs[i] != op.Rec {
			return fmt.Errorf("fix: replaying ingest log op %d: it is record %d, the log says %d", i, sub.recs[i], op.Rec)
		}
	}
	obs.Default().ObserveIngestReplayed(len(ops))
	return nil
}

// dropOldFiles removes what the format before batch trailers kept beside
// the heap, fix.tomb last: while it is there, a crash converts again.
func (db *DB) dropOldFiles() error {
	for _, name := range []string{core.IngestLogName, tombName} {
		if err := fileRemove(filepath.Join(db.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

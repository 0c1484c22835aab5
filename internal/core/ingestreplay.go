package core

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// replayParseLimits disables every parse bound for recovery. The logged
// bytes were already validated against the DB's configured limits when
// the operation was acknowledged, and those limits live only in memory
// (they are not persisted), so re-parsing under the defaults could
// reject a document admitted under looser custom limits and leave the
// database unopenable.
var replayParseLimits = xmltree.ParseLimits{
	MaxDepth:      -1,
	MaxTokenBytes: -1,
	MaxChildren:   -1,
	MaxNodes:      -1,
	MaxBytes:      -1,
}

// ReplayIngest re-applies the acknowledged operations of an ingest log
// to a store that has been truncated back to the log's base. Inserts are
// re-parsed and re-appended — the dictionary already holds every label
// the original appends assigned (it is saved before the log is created),
// so the encoding is deterministic and each append must land on exactly
// the record number the log recorded; a mismatch means the heap and the
// log disagree about the base and replay fails loudly rather than
// acknowledge the wrong documents. Deletes re-tombstone their records.
//
// ix may be nil (no index built yet). A healthy index absorbs the
// replayed operations in place; if an operation cannot be indexed
// (ErrRebuildRequired, or any mid-insert failure that could leave
// partial entries) the index degrades and replay continues — the
// documents' durability never depends on the index, only on the heap,
// and a degraded index still answers exactly through the scan fallback.
//
// It returns the number of operations replayed.
func ReplayIngest(st *storage.Store, ix *Index, ops []IngestOp) (int, error) {
	for i, op := range ops {
		switch op.Kind {
		case IngestOpInsert:
			n, err := xmltree.ParseWithLimits(bytes.NewReader(op.XML), replayParseLimits)
			if err != nil {
				return i, fmt.Errorf("core: replaying ingest op %d: document no longer parses: %w", i, err)
			}
			rec, err := st.AppendTree(n)
			if err != nil {
				return i, fmt.Errorf("core: replaying ingest op %d: %w", i, err)
			}
			if rec != op.Rec {
				return i, fmt.Errorf("core: replaying ingest op %d: append produced record %d, log says %d", i, rec, op.Rec)
			}
			if ix != nil && ix.Health() == nil {
				if err := ix.InsertDocuments(rec); err != nil {
					if !errors.Is(err, ErrRebuildRequired) {
						err = fmt.Errorf("replayed insert of record %d failed: %w", rec, err)
					}
					ix.Degrade(err)
				}
			}
		case IngestOpDelete:
			if _, err := st.MarkDeleted(op.Rec); err != nil {
				return i, fmt.Errorf("core: replaying ingest op %d: %w", i, err)
			}
			if ix != nil && ix.Health() == nil {
				if _, err := ix.DeleteDocument(op.Rec); err != nil {
					ix.Degrade(fmt.Errorf("replayed delete of record %d failed: %w", op.Rec, err))
				}
			}
		default:
			return i, fmt.Errorf("core: replaying ingest op %d: unknown kind %d", i, op.Kind)
		}
	}
	return len(ops), nil
}

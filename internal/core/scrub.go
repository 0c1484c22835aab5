package core

import (
	"context"
	"errors"
	"fmt"
)

// ScrubDiskCtx verifies the on-disk B-tree image of the index in bounded
// chunks, releasing the tree lock between chunks so queries and ingest
// interleave with the scan (see btree.Tree.ScrubDisk). It is the
// background scrubber's entry point: unlike Verify it reads the file
// directly, so it catches latent on-disk damage — bit rot — while the
// index is still serving from a resident image that looks fine.
//
// pause, when non-nil, runs between chunks with no locks held; returning
// an error aborts the scan. Detected corruption latches degraded health,
// exactly like Verify, and returns an error wrapping ErrCorrupt; a
// cancelled context or an aborting pause returns without touching
// health. It returns the number of pages verified.
func (ix *Index) ScrubDiskCtx(ctx context.Context, chunkPages int, pause func() error) (int, error) {
	if err := ix.Health(); err != nil {
		return 0, err
	}
	if ix.bt == nil {
		return 0, fmt.Errorf("%w: B-tree unavailable", ErrCorrupt)
	}
	n, err := ix.bt.ScrubDisk(chunkPages, func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pause != nil {
			return pause()
		}
		return nil
	})
	if err != nil && errors.Is(err, ErrCorrupt) {
		ix.setHealth(err)
	}
	return n, err
}

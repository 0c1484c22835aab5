package btree

import "fmt"

// ScrubDisk verifies the on-disk image of the tree — page checksums,
// format versions, and node structure — in bounded chunks, releasing the
// tree mutex between chunks so writers and flushes interleave with the
// scan. It is the background scrubber's view of the file: unlike Verify,
// which reads the resident image and so would happily validate pages
// whose file copy has rotted, ScrubDisk reads the file directly and
// catches latent on-disk damage before a reopen trips over it.
//
// Pages that are dirty — changed since the last Flush — are skipped: their
// disk copy is legitimately stale (or absent) until the next one, so only
// clean pages make claims about the file. pause, when non-nil, runs
// between chunks with no locks held; returning an error aborts the scan
// with that error, which is how callers bound the scrubber's I/O rate
// and propagate cancellation.
//
// It returns the number of pages verified and the first problem found,
// wrapping ErrCorrupt for validation failures.
func (t *Tree) ScrubDisk(chunk int, pause func() error) (int, error) {
	if chunk <= 0 {
		chunk = 64
	}
	scanned := 0
	var buf []byte
	for start := uint32(0); ; {
		t.mu.Lock()
		npages := uint32(len(t.pages))
		if start >= npages {
			t.mu.Unlock()
			return scanned, nil
		}
		end := min(start+uint32(chunk), npages)
		if buf == nil {
			buf = make([]byte, t.pageSize)
		}
		for id := start; id < end; id++ {
			if t.dirty.has(id) {
				continue
			}
			if _, err := t.f.ReadAt(buf, int64(id)*int64(t.pageSize)); err != nil {
				t.mu.Unlock()
				return scanned, fmt.Errorf("btree: scrub: reading page %d: %w", id, err)
			}
			if err := verifyPage(id, buf); err != nil {
				t.mu.Unlock()
				return scanned, fmt.Errorf("btree: scrub: %w", err)
			}
			if id > 0 {
				if _, err := decodeNode(id, buf[pageHeaderSize:]); err != nil {
					t.mu.Unlock()
					return scanned, fmt.Errorf("btree: scrub: %w", err)
				}
			}
			scanned++
		}
		t.mu.Unlock()
		start = end
		if pause != nil {
			if err := pause(); err != nil {
				return scanned, err
			}
		}
	}
}

package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/fix-index/fix/internal/xmltree"
)

// The heap before batch trailers was the magic FIXSTOR1 and records
// only; its database kept acknowledged writes in an ingest log and
// deletes in a tombstone sidecar. This file, which converts it, goes with
// the next format generation, as core.IngestLog's reader does.
const oldStoreMagic = "FIXSTOR1"

// oldRecords walks the records in the first size bytes of f, a heap of
// records only, and returns where each starts, its length, and where the
// last whole one ends.
func oldRecords(f File, size int64) (offs []int64, lens []uint32, end int64, err error) {
	c := &heapCursor{f: f, size: size, pos: int64(len(storeMagic))}
	end = c.pos
	for b := c.bytes(4); b != nil; b = c.bytes(4) {
		n := binary.BigEndian.Uint32(b)
		if c.pos += int64(n); c.pos > size {
			break
		}
		offs, lens = append(offs, end), append(lens, n)
		end = c.pos
	}
	return offs, lens, end, c.err
}

// OldRecords returns how many whole records f, a FIXSTOR1 heap, holds
// and where the last of them ends: before the end of the file when a
// record runs past it.
func OldRecords(f File) (int, int64, error) {
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	offs, _, end, err := oldRecords(f, size)
	return len(offs), end, err
}

// ConvertStore makes f, a heap whose first bytes after the magic are
// records only — all of a FIXSTOR1 heap, or the part before the trailer a
// conversion a crash interrupted wrote — a heap with trailers. It cuts
// the file at base, which must end a record, tombstones deleted, seals
// every record with one trailer — dict is labels.dict, so it names no
// label — and syncs, and only then writes the new magic and syncs again:
// a crash before that leaves a FIXSTOR1 heap, which converts again. The
// file is mapped only once every write is done, so a failure leaves
// nothing open but f, which stays the caller's. The store it returns
// appends after the trailer.
func ConvertStore(f File, dict *xmltree.Dict, base int64, deleted []uint32) (*Store, error) {
	hdr := make([]byte, len(storeMagic))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("storage: reading header: %w", err)
	}
	if m := string(hdr); m != oldStoreMagic && m != storeMagic {
		return nil, fmt.Errorf("storage: bad magic %q", hdr)
	}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	offs, lens, end, err := oldRecords(f, min(size, base))
	if err != nil {
		return nil, err
	}
	if end != base {
		return nil, fmt.Errorf("storage: converting data.heap: its records end at %d, not at %d", end, base)
	}
	c := &heapCursor{f: f, size: end}
	s := &Store{f: f, own: f, dict: dict, labels: dict.Len(), offs: offs, lens: lens, end: end, sealed: int64(len(storeMagic))}
	if s.crc = c.sum(s.sealed, end); c.err != nil {
		return nil, c.err
	}
	if end < size {
		if err := f.Truncate(end); err != nil {
			return nil, fmt.Errorf("storage: converting data.heap: %w", err)
		}
	}
	for _, rec := range deleted {
		if _, err := s.MarkDeleted(rec); err != nil {
			return nil, fmt.Errorf("storage: converting data.heap: %w", err)
		}
	}
	if err := s.Seal(); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("storage: converting data.heap: %w", err)
	}
	if _, err := f.WriteAt([]byte(storeMagic), 0); err != nil {
		return nil, fmt.Errorf("storage: converting data.heap: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("storage: converting data.heap: %w", err)
	}
	s.f = mapHeap(f)
	return s, nil
}

// tombMagic identifies the tombstone sidecar (fix.tomb) of the format
// before batch trailers.
const tombMagic = "FIXTOMB1"

// DecodeTombstones parses a tombstone sidecar:
//
//	magic (8) | count (u32) | rec (u32) × count | CRC-32C (u32)
//
// validating magic, length, and checksum.
func DecodeTombstones(b []byte) ([]uint32, error) {
	if len(b) < len(tombMagic)+8 {
		return nil, fmt.Errorf("storage: tombstone sidecar too short (%d bytes)", len(b))
	}
	if string(b[:len(tombMagic)]) != tombMagic {
		return nil, fmt.Errorf("storage: tombstone sidecar bad magic %q", b[:len(tombMagic)])
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("storage: tombstone sidecar checksum mismatch")
	}
	count := binary.BigEndian.Uint32(b[len(tombMagic):])
	want := len(tombMagic) + 4 + 4*int(count) + 4
	if len(b) != want {
		return nil, fmt.Errorf("storage: tombstone sidecar length %d, want %d for %d records", len(b), want, count)
	}
	recs := make([]uint32, count)
	for i := range recs {
		recs[i] = binary.BigEndian.Uint32(b[len(tombMagic)+4+4*i:])
	}
	return recs, nil
}

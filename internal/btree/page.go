package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Every on-disk page carries a small header so that torn writes and bit
// rot are detected instead of silently mis-decoded:
//
//	offset 0..3  CRC-32C (Castagnoli) of bytes 4..pageSize-1
//	offset 4     page format version
//	offset 5..7  reserved (zero)
//	offset 8..   payload (meta fields on page 0, a node elsewhere)
//
// The checksum is stamped before a page is journaled or written (Tree.own
// lets the header change under a View that shares the buffer: readers skip
// it) and verified when Open or the scrubber reads the page from the file;
// the resident image is authoritative and not re-verified.
const (
	pageHeaderSize    = 8
	pageFormatVersion = 1
)

// ErrCorrupt reports that on-disk data failed validation: a checksum
// mismatch, an unknown format version, or a structurally invalid page.
// Callers distinguish it from I/O errors with errors.Is and can fall back
// to scanning the primary store, which never misses a match.
var ErrCorrupt = errors.New("btree: corrupt page")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// stampPage writes the format version and checksum into buf's header.
func stampPage(buf []byte) {
	buf[4] = pageFormatVersion
	buf[5], buf[6], buf[7] = 0, 0, 0
	binary.BigEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], crcTable))
}

// verifyPage checks buf's header against its contents.
func verifyPage(id uint32, buf []byte) error {
	want := binary.BigEndian.Uint32(buf[0:4])
	if got := crc32.Checksum(buf[4:], crcTable); got != want {
		return fmt.Errorf("%w: page %d checksum %08x, want %08x", ErrCorrupt, id, got, want)
	}
	if buf[4] != pageFormatVersion {
		return fmt.Errorf("%w: page %d has format version %d, want %d", ErrCorrupt, id, buf[4], pageFormatVersion)
	}
	return nil
}

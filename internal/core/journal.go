package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/storage"
)

// Shadow-commit protocol. Save does not overwrite the committed index in
// place: it first writes everything the commit will change — the dirty
// B-tree pages and the full new contents of fix.meta and fix.edges — to a
// side journal (fix.journal) and fsyncs it, and only then applies the
// changes to the real files and removes the journal. The journal ends in
// a CRC-32C over its entire contents, so after a crash Recover can decide
// with certainty whether the commit happened:
//
//   - journal absent or its checksum invalid: the commit never reached
//     its durability point; the journal is discarded and the previous
//     committed state (old fix.meta/fix.edges/pages) remains in force.
//   - journal valid: the commit is durable; replaying it (idempotently)
//     completes the half-applied state, whatever subset of the real files
//     the crash interrupted.
//
// Layout (all integers big-endian):
//
//	offset 0..7    magic "FIXJNL01"
//	offset 8..11   page size
//	offset 12..15  number of page records
//	offset 16..19  length of the fix.meta payload
//	offset 20..23  length of the fix.edges payload
//	then per page record: page id u32, page bytes [pageSize]
//	then the fix.meta payload, the fix.edges payload
//	finally CRC-32C of everything above, u32
const journalMagic = "FIXJNL01"

const journalName = "fix.journal"

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalPage is one page record: the page as Flush writes it in place.
type journalPage struct {
	id   uint32
	data []byte
}

type journal struct {
	pageSize int
	pages    []journalPage
	meta     []byte
	edges    []byte
}

// writeJournal streams the commit of bt's dirty pages and the new meta and
// edges contents to jf, in the layout above, under a running checksum. The
// page images go from the tree's own buffers to the file through one
// fixed-size buffer: a checkpoint journals every page of its window, and
// copies of them all would be the largest transient allocation a server
// makes.
func writeJournal(jf storage.File, bt *btree.Tree, meta, edges []byte) error {
	w := bufio.NewWriterSize(io.NewOffsetWriter(jf, 0), 64<<10)
	sum := crc32.New(journalCRC)
	out := io.MultiWriter(w, sum)
	put := func(vs ...uint32) error {
		var u [4]byte
		for _, v := range vs {
			binary.BigEndian.PutUint32(u[:], v)
			if _, err := out.Write(u[:]); err != nil {
				return err
			}
		}
		return nil
	}
	err := bt.DirtyPages(func(i, n int, id uint32, image []byte) error {
		if i == 0 {
			if _, err := io.WriteString(out, journalMagic); err != nil {
				return err
			}
			if err := put(uint32(len(image)), uint32(n), uint32(len(meta)), uint32(len(edges))); err != nil {
				return err
			}
		}
		if err := put(id); err != nil {
			return err
		}
		_, err := out.Write(image)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := out.Write(meta); err != nil {
		return err
	}
	if _, err := out.Write(edges); err != nil {
		return err
	}
	out = w // the checksum does not cover itself
	if err := put(sum.Sum32()); err != nil {
		return err
	}
	return w.Flush()
}

// decodeJournal parses buf; ok is false when the journal is incomplete or
// damaged, i.e. the commit it describes never became durable.
func decodeJournal(buf []byte) (*journal, bool) {
	if len(buf) < 28 || string(buf[:8]) != journalMagic {
		return nil, false
	}
	j := &journal{pageSize: int(binary.BigEndian.Uint32(buf[8:12]))}
	npages := int(binary.BigEndian.Uint32(buf[12:16]))
	metaLen := int(binary.BigEndian.Uint32(buf[16:20]))
	edgesLen := int(binary.BigEndian.Uint32(buf[20:24]))
	if j.pageSize <= 0 || j.pageSize > 1<<24 || npages < 0 || metaLen < 0 || edgesLen < 0 {
		return nil, false
	}
	total := 24 + npages*(4+j.pageSize) + metaLen + edgesLen + 4
	if len(buf) != total {
		return nil, false
	}
	sum := binary.BigEndian.Uint32(buf[total-4:])
	if crc32.Checksum(buf[:total-4], journalCRC) != sum {
		return nil, false
	}
	pos := 24
	for i := 0; i < npages; i++ {
		id := binary.BigEndian.Uint32(buf[pos : pos+4])
		pos += 4
		j.pages = append(j.pages, journalPage{id: id, data: buf[pos : pos+j.pageSize]})
		pos += j.pageSize
	}
	j.meta = buf[pos : pos+metaLen]
	pos += metaLen
	j.edges = buf[pos : pos+edgesLen]
	return j, true
}

// Recover completes or discards a half-finished Save in dir. It is
// idempotent, a no-op when no journal is present, and must run before the
// index files are read; Open and fix.Open call it automatically.
func Recover(dir string) error {
	jpath := filepath.Join(dir, journalName)
	buf, err := os.ReadFile(jpath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: reading journal: %w", err)
	}
	j, ok := decodeJournal(buf)
	if !ok {
		// The commit never became durable: discard it and keep the
		// previous committed state.
		return os.Remove(jpath)
	}
	bpath := filepath.Join(dir, "fix.btree")
	bf, err := os.OpenFile(bpath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("core: replaying journal: %w", err)
	}
	for _, pg := range j.pages {
		if _, err := bf.WriteAt(pg.data, int64(pg.id)*int64(j.pageSize)); err != nil {
			_ = bf.Close()
			return fmt.Errorf("core: replaying page %d: %w", pg.id, err)
		}
	}
	if err := bf.Sync(); err != nil {
		_ = bf.Close()
		return err
	}
	if err := bf.Close(); err != nil {
		return err
	}
	if err := atomicWrite(osFS, filepath.Join(dir, "fix.edges"), j.edges); err != nil {
		return err
	}
	if err := atomicWrite(osFS, filepath.Join(dir, "fix.meta"), j.meta); err != nil {
		return err
	}
	return os.Remove(jpath)
}

// indexFS is the seam through which the index touches its own files;
// tests swap it for a fault-injecting variant to exercise every crash
// point of the commit protocol.
type indexFS struct {
	create func(path string) (storage.File, error)
	open   func(path string) (storage.File, error)
}

var osFS = &indexFS{create: storage.Create, open: storage.Open}

// atomicWrite replaces path with data via a temp file, fsync, and rename,
// so readers observe either the old contents or the new, never a prefix.
func atomicWrite(fsys *indexFS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

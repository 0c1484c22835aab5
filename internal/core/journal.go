package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/storage"
)

// Shadow-commit protocol. Save does not overwrite the committed index in
// place: it first writes everything the commit will change — the dirty
// B-tree pages and the full new contents of fix.meta and fix.edges — to a
// side journal (fix.journal) and fsyncs it and its directory, and only
// then applies the changes to the real files and removes the journal. The journal ends in
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
	fsys := storage.Disk
	jpath := filepath.Join(dir, journalName)
	buf, err := fsys.ReadFile(jpath)
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
		return fsys.Remove(jpath)
	}
	bpath := filepath.Join(dir, "fix.btree")
	bf, err := fsys.Open(bpath)
	if errors.Is(err, fs.ErrNotExist) {
		bf, err = fsys.Create(bpath)
	}
	if err != nil {
		return fmt.Errorf("core: replaying journal: %w", err)
	}
	for _, pg := range j.pages {
		if _, err = bf.WriteAt(pg.data, int64(pg.id)*int64(j.pageSize)); err != nil {
			err = fmt.Errorf("core: replaying page %d: %w", pg.id, err)
			break
		}
	}
	if err == nil {
		err = bf.Sync()
	}
	if cerr := bf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return finishCommit(dir, j.meta, j.edges)
}

// finishCommit ends a commit whose journal is durable and whose pages are
// in fix.btree, in Save and in Recover alike: fix.edges and fix.meta are
// replaced — each rename synced with its directory, which also makes a
// fix.btree created before it durable — and the journal is removed, and
// the removal synced. A journal a power loss brought back would be
// replayed over whatever wrote fix.btree since: a rebuild (BuildCtx)
// rewrites it in place under the committed fix.meta.
func finishCommit(dir string, meta, edges []byte) error {
	if err := storage.WriteAtomic(storage.Disk, filepath.Join(dir, "fix.edges"), edges); err != nil {
		return err
	}
	if err := storage.WriteAtomic(storage.Disk, filepath.Join(dir, "fix.meta"), meta); err != nil {
		return err
	}
	if err := storage.Disk.Remove(filepath.Join(dir, journalName)); err != nil {
		return err
	}
	return storage.Disk.SyncDir(dir)
}

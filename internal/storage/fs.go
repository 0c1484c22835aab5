package storage

import (
	"os"
	"path/filepath"
	"runtime"
)

// FS is the one seam through which a database touches its durable files:
// data.heap, fix.btree, fix.journal, fix.meta, fix.edges, labels.dict and
// collection.json are created, opened, read, renamed and removed through it,
// and a name that must survive a power loss is made durable by SyncDir.
// The fix, core and collection packages reach it only through Disk.
type FS interface {
	Create(path string) (File, error)     // create or truncate, read/write
	Open(path string) (File, error)       // an existing file, read/write
	ReadFile(path string) ([]byte, error) // the whole file, opened read-only
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir makes the entries of dir durable: the names created,
	// renamed or removed in it before the call.
	SyncDir(dir string) error
}

// Disk is the filesystem every durable file goes through. Tests replace
// it (a FaultPlan's WrapFS, a logging wrapper) and restore it after.
var Disk FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error)     { return Create(path) }
func (osFS) Open(path string) (File, error)       { return Open(path) }
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil // a directory cannot be opened for an fsync there
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteAtomic replaces path with data: a temp file beside it is written,
// fsynced, closed and renamed over path, and then path's directory is
// synced so the new name survives a power loss. Readers see the old
// contents or the new, never a prefix; a failure before the rename
// removes the temp file and leaves path as it was. It is the only
// function that renames a file into place.
func WriteAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

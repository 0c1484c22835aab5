package fix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// unabsorbedFixture is a directory the format before batch trailers
// wrote: a FIXSTOR1 heap, fix.tomb, and a fix.ingest of operations
// closed without a checkpoint — every marker of that format at once.
const unabsorbedFixture = "unabsorbed-log-written-by-pr40"

// readDir returns the contents of every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]byte, len(files))
	for _, f := range files {
		if got[f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestOpenRefusesOldFormat opens directories written before batch
// trailers — the format itself, and what a conversion a crash interrupted
// leaves beside a converted heap — and requires Open to fail with
// ErrOldFormat naming the commit that converts them, with every file as
// it was and none added or removed. The row with a fix.journal shows the
// check comes before the journal's recovery, which would consume it.
func TestOpenRefusesOldFormat(t *testing.T) {
	old := filepath.Join("testdata", unabsorbedFixture)
	remove := func(names ...string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			for _, name := range names {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	add := func(name string, data []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if data == nil {
				var err error
				if data, err = os.ReadFile(filepath.Join(old, name)); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, fixture string
		edits         []func(t *testing.T, dir string)
	}{
		{"unabsorbed log as written", unabsorbedFixture, nil},
		{"FIXSTOR1 heap alone", unabsorbedFixture, []func(*testing.T, string){remove("fix.ingest", "fix.tomb")}},
		{"FIXSTOR1 heap and a journal", unabsorbedFixture, []func(*testing.T, string){remove("fix.ingest", "fix.tomb"), add("fix.journal", []byte("not a journal"))}},
		{"this format with a fix.tomb", "index-written-by-pr42", []func(*testing.T, string){add("fix.tomb", nil)}},
		{"this format with a fix.ingest", "index-written-by-pr42", []func(*testing.T, string){add("fix.ingest", nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyFixture(t, tc.fixture)
			for _, edit := range tc.edits {
				edit(t, dir)
			}
			before := readDir(t, dir)
			db, err := Open(dir)
			if err == nil {
				_ = db.Close()
			}
			if !errors.Is(err, ErrOldFormat) || !strings.Contains(err.Error(), "3802ee0") {
				t.Fatalf("Open = %v, want ErrOldFormat naming commit 3802ee0", err)
			}
			after := readDir(t, dir)
			for name, b := range before {
				if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
					t.Errorf("%s: %d bytes before Open, %d after (there: %t)", name, len(b), len(a), ok)
				}
			}
			for name := range after {
				if _, ok := before[name]; !ok {
					t.Errorf("Open added %s", name)
				}
			}
		})
	}
}

// trackedFile records whether it was closed.
type trackedFile struct {
	storage.File
	name   string
	closed bool
}

func (f *trackedFile) Close() error {
	f.closed = true
	return f.File.Close()
}

// TestOpenClosesFilesWhenItFails opens copies of index-written-by-pr42
// with two batches sealed after its checkpoint and a torn append after
// them, which Open cuts, catches up and checkpoints: once for each write,
// sync, truncation, rename, removal and directory sync of that catch-up
// the plan sees failing there, and once with the last batch's trailer
// damaged, which is ErrCorrupt. Open fails, and every file it created or
// opened through the seam — data.heap, fix.btree, the journal and the
// temp files of the dictionary's and the index metadata's replaces — is
// closed. The seam's ReadFile holds no file open.
func TestOpenClosesFilesWhenItFails(t *testing.T) {
	behind := t.TempDir()
	copyFiles(t, filepath.Join("testdata", "index-written-by-pr42"), behind)
	db, err := Open(behind)
	if err != nil {
		t.Fatal(err)
	}
	docs := xmarkEntityDocs(3, 0.02)
	for _, batch := range [][]string{docs[:4], docs[4:8]} {
		if _, err := db.IngestBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil { // no checkpoint: the batches are past it
		t.Fatal(err)
	}
	heap, err := os.OpenFile(filepath.Join(behind, "data.heap"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = heap.Write([]byte{0, 0, 0, 100}) // the length prefix of an append a crash cut short
	if cerr := heap.Close(); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	copyBehind := func() string {
		dir := t.TempDir()
		copyFiles(t, behind, dir)
		return dir
	}

	// openTracked opens dir under pl and returns the files Open created or
	// opened, the writes it made and its error.
	openTracked := func(dir string, pl *storage.FaultPlan) ([]*trackedFile, int, error) {
		var (
			mu     sync.Mutex
			opened []*trackedFile
		)
		defer useFS(t, storage.WrapFiles(pl.WrapFS(storage.Disk), func(path string, f storage.File) storage.File {
			mu.Lock()
			defer mu.Unlock()
			tf := &trackedFile{File: f, name: filepath.Base(path)}
			opened = append(opened, tf)
			return tf
		}))()
		db, err := Open(dir)
		writes := pl.Writes()
		if err == nil {
			_ = db.Close()
		}
		return opened, writes, err
	}
	seen := map[string]bool{} // the files the failing Opens opened, by name
	check := func(ctx string, opened []*trackedFile, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: Open succeeded", ctx)
		}
		if len(opened) == 0 {
			t.Fatalf("%s: Open opened no file through the seam", ctx)
		}
		for i, f := range opened {
			seen[f.name] = true
			if !f.closed {
				t.Errorf("%s: %s, file %d of %d Open opened, is still open", ctx, f.name, i+1, len(opened))
			}
		}
	}
	dir := copyBehind()
	info, err := os.Stat(filepath.Join(dir, "data.heap"))
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, "data.heap"), info.Size()-5) // the last byte of the trailer before the torn append
	opened, _, err := openTracked(dir, &storage.FaultPlan{})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with the last trailer damaged = %v, want ErrCorrupt", err)
	}
	check("a damaged trailer", opened, err)

	_, writes, err := openTracked(copyBehind(), &storage.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Fatal("the catch-up made no write through the plan")
	}
	t.Logf("the catch-up makes %d writes and syncs through the plan", writes)
	for n := 1; n <= writes; n++ {
		opened, _, err := openTracked(copyBehind(), &storage.FaultPlan{FailWrite: n})
		check(fmt.Sprintf("write %d of %d failing", n, writes), opened, err)
	}
	for _, name := range []string{"data.heap", "fix.btree", "fix.journal", "labels.dict.tmp", "fix.meta.tmp", "fix.edges.tmp"} {
		if !seen[name] {
			t.Errorf("no failing Open opened %s through the seam", name)
		}
	}
}

package core

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

func buildPersistent(t *testing.T, dir string, opts Options) (*storage.Store, *Index) {
	t.Helper()
	dict := xmltree.NewDict()
	hf, err := storage.Create(filepath.Join(dir, "data.heap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewStore(hf, dict)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bibDocs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatal(err)
		}
	}
	opts.Dir = dir
	ix, err := Build(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, ix
}

func TestSaveOpenRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Clustered: true},
		{Values: true, Beta: 4},
		{PaperPruning: true},
	} {
		dir := t.TempDir()
		st, ix := buildPersistent(t, dir, opts)
		q := xpath.MustParse("//author[email]")
		want, err := query(freeze(t, ix), q)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(st, dir)
		if err != nil {
			t.Fatalf("opts %+v: Open: %v", opts, err)
		}
		got, err := query(freeze(t, re), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("opts %+v: reopened query %+v, want %+v", opts, got, want)
		}
		if re.Entries() != ix.Entries() {
			t.Errorf("opts %+v: entries %d, want %d", opts, re.Entries(), ix.Entries())
		}
		ro := re.Options()
		if ro.Clustered != opts.Clustered || ro.Values != opts.Values || ro.PaperPruning != opts.PaperPruning {
			t.Errorf("opts round trip: got %+v, want %+v", ro, opts)
		}
	}
}

func TestOpenMissingDir(t *testing.T) {
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open on missing dir succeeded")
	}
}

func TestOpenCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	st, ix := buildPersistent(t, dir, Options{})
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fix.meta"), []byte("garbage 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st, dir); err == nil {
		t.Error("Open on corrupt meta succeeded")
	}
}

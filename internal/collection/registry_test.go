package collection

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestServiceLifecycle(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	svc, err := OpenService(root, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Create(ctx, "books", Spec{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(ctx, "films", Spec{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(ctx, "books", Spec{}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v, want ErrExists", err)
	}
	if _, err := svc.Create(ctx, "no/slashes", Spec{}); err == nil {
		t.Error("invalid name accepted")
	}
	if got := svc.Names(); len(got) != 2 || got[0] != "books" || got[1] != "films" {
		t.Errorf("Names = %v, want [books films]", got)
	}

	col, release, err := svc.Acquire("books")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddBatch(ctx, []string{doc(labelFor(t, 0, 2), 1)}); err != nil {
		t.Fatal(err)
	}
	release()
	if _, _, err := svc.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Acquire(nope) = %v, want ErrNotFound", err)
	}

	// Reopen: collections come back from disk, WALs replayed.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err = OpenService(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Names(); len(got) != 2 {
		t.Fatalf("Names after reopen = %v", got)
	}
	col, release, err = svc.Acquire("books")
	if err != nil {
		t.Fatal(err)
	}
	res, err := col.Query(ctx, "//item", QueryOpts{})
	release()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("books count after reopen = %d, want 1", res.Count)
	}

	// Drop removes the directory and the registration.
	if err := svc.Drop("films"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "films")); !os.IsNotExist(err) {
		t.Errorf("films directory survives drop: %v", err)
	}
	if got := svc.Names(); len(got) != 1 || got[0] != "books" {
		t.Errorf("Names after drop = %v", got)
	}
	if err := svc.Drop("films"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop = %v, want ErrNotFound", err)
	}
}

// TestDropWaitsForReferences pins a collection with Acquire and checks
// Drop blocks until release, instead of closing it mid-request.
func TestDropWaitsForReferences(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	svc, err := OpenService(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Create(ctx, "pinned", Spec{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	col, release, err := svc.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}

	dropped := make(chan error, 1)
	go func() { dropped <- svc.Drop("pinned") }()

	select {
	case err := <-dropped:
		t.Fatalf("Drop returned %v while a reference was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	// The pinned collection still works while Drop waits.
	if _, err := col.Query(ctx, "//x", QueryOpts{}); err != nil {
		t.Errorf("query on pinned collection during drop: %v", err)
	}
	release()
	if err := <-dropped; err != nil {
		t.Fatalf("Drop after release: %v", err)
	}
}

// TestServiceIgnoresStrayDirs checks OpenService skips subdirectories
// without a manifest instead of failing or inventing collections.
func TestServiceIgnoresStrayDirs(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "not-a-collection"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Names(); len(got) != 0 {
		t.Errorf("Names over stray dirs = %v, want none", got)
	}
}

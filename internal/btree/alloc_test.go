//go:build !race

package btree

import (
	"fmt"
	"testing"
)

// TestViewReadsDoNotAllocate pins the property the probe's speed rests on:
// a View reads its pages in place, so a full scan of 20 000 entries — a
// descent, every leaf, every cell — allocates nothing, and a lookup
// allocates only the copy of the value it returns. A read path sent back
// through a copying decode fails here without any timing.
func TestViewReadsDoNotAllocate(t *testing.T) {
	const n = 20000
	tr := newTree(t, DefaultPageSize)
	entries := make([]kv, n)
	for i := range entries {
		entries[i] = kv{[]byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("value-%08d", i))}
	}
	if err := tr.Load(feed(entries)); err != nil {
		t.Fatal(err)
	}
	view, err := tr.FreezeView(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	count := func(k, v []byte) bool {
		seen++
		return true
	}
	if allocs := testing.AllocsPerRun(5, func() {
		seen = 0
		if err := view.Scan(nil, nil, count); err != nil || seen != n {
			t.Fatalf("scan saw %d of %d entries, err %v", seen, n, err)
		}
	}); allocs != 0 {
		t.Errorf("a full View.Scan allocates %v times, want 0", allocs)
	}
	from, to := entries[n/2].k, entries[n/2+100].k
	if allocs := testing.AllocsPerRun(100, func() {
		seen = 0
		if err := view.Scan(from, to, count); err != nil || seen != 100 {
			t.Fatalf("range scan saw %d of 100 entries, err %v", seen, err)
		}
	}); allocs != 0 {
		t.Errorf("a range View.Scan allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if v, ok, err := view.Get(entries[n/3].k); err != nil || !ok || len(v) == 0 {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
	}); allocs != 1 {
		t.Errorf("View.Get allocates %v times, want 1 (the copy it returns)", allocs)
	}
}

// TestInPlaceEditsDoNotAllocate pins what the ingest path's speed rests
// on: a Put of a new key whose cell fits on its leaf, and a Delete, walk
// the pages where they lie and edit the leaf in its buffer — no node
// decode, no per-entry copy, no re-encode. Each run puts and deletes the
// same key, so the leaf always has room and no run splits.
func TestInPlaceEditsDoNotAllocate(t *testing.T) {
	const n = 20000
	tr := newTree(t, DefaultPageSize)
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("value-%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("fixture: height %d, want a descent", tr.Height())
	}
	key, val := []byte(fmt.Sprintf("key-%08d+", n/2)), []byte("a value of ordinary size")
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if ok, err := tr.Delete(key); err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
	}); allocs != 0 {
		t.Errorf("a fitting Put of a new key plus its Delete allocate %v times, want 0", allocs)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}

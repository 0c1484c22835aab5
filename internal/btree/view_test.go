package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/storage"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val%04d", i)) }

// TestFreezeViewSnapshotIsolation freezes a view and keeps mutating the
// live tree: the view must keep answering exactly from the frozen state.
func TestFreezeViewSnapshotIsolation(t *testing.T) {
	tr := newTree(t, 512)
	const n = 100
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tr.FreezeView(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the live tree: overwrite every even key, add new keys.
	for i := 0; i < n; i += 2 {
		if err := tr.Put(key(i), []byte("LIVE")); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < 2*n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Len() != n {
		t.Errorf("view Len = %d, want %d (frozen before inserts)", v.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := v.Get(key(i))
		if err != nil || !ok || string(got) != string(val(i)) {
			t.Fatalf("view Get(%s) = %q, %v, %v; want %q", key(i), got, ok, err, val(i))
		}
	}
	if _, ok, _ := v.Get(key(n)); ok {
		t.Error("view sees a key inserted after the freeze")
	}
	// The live tree sees all mutations.
	got, ok, err := tr.Get(key(0))
	if err != nil || !ok || string(got) != "LIVE" {
		t.Fatalf("live Get(key0) = %q, %v, %v; want LIVE", got, ok, err)
	}
	// A full view scan yields exactly the frozen entries, in order.
	count := 0
	err = v.Scan(nil, nil, func(k, val []byte) bool {
		if string(k) != string(key(count)) {
			t.Fatalf("scan key %d = %s, want %s", count, k, key(count))
		}
		count++
		return true
	})
	if err != nil || count != n {
		t.Fatalf("view scan: count = %d, err = %v; want %d", count, err, n)
	}
}

// TestFreezeViewSharesUnchangedPages verifies the copy-on-write contract:
// consecutive views share the buffers of pages untouched between freezes.
func TestFreezeViewSharesUnchangedPages(t *testing.T) {
	tr := newTree(t, 512)
	for i := 0; i < 200; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := tr.FreezeView(nil)
	if err != nil {
		t.Fatal(err)
	}
	// No mutation in between: the second view must share every buffer.
	v2, err := tr.FreezeView(v1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id < len(v1.pages); id++ {
		if v1.pages[id] == nil {
			continue
		}
		if &v1.pages[id][0] != &v2.pages[id][0] {
			t.Fatalf("page %d not shared across an unchanged freeze", id)
		}
	}
	// One insert dirties a handful of pages; the rest stay shared.
	if err := tr.Put(key(1000), val(1000)); err != nil {
		t.Fatal(err)
	}
	v3, err := tr.FreezeView(v2)
	if err != nil {
		t.Fatal(err)
	}
	shared, copied := 0, 0
	for id := 1; id < len(v2.pages); id++ {
		if v2.pages[id] == nil || id >= len(v3.pages) || v3.pages[id] == nil {
			continue
		}
		if &v2.pages[id][0] == &v3.pages[id][0] {
			shared++
		} else {
			copied++
		}
	}
	if shared == 0 {
		t.Error("no pages shared after a single-key insert")
	}
	if copied == 0 {
		t.Error("no pages copied after a single-key insert (dirty tracking broken?)")
	}
	if copied >= shared {
		t.Errorf("copied %d >= shared %d pages for one insert; expected a small dirty set", copied, shared)
	}
	// The new view sees the insert, the old one does not.
	if _, ok, _ := v3.Get(key(1000)); !ok {
		t.Error("v3 missing the key inserted before its freeze")
	}
	if _, ok, _ := v2.Get(key(1000)); ok {
		t.Error("v2 sees a key inserted after its freeze")
	}
}

// TestFreezeViewAfterEviction drives the cache small enough that freeze
// must materialize evicted pages from the file, and verifies the image.
func TestFreezeViewAfterEviction(t *testing.T) {
	tr, err := Create(storage.NewMemFile(), 512, 4) // tiny cache: evicts constantly
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tr.FreezeView(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != n {
		t.Fatalf("view Len = %d, want %d", v.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := v.Get(key(i))
		if err != nil || !ok || string(got) != string(val(i)) {
			t.Fatalf("view Get(%s) = %q, %v, %v", key(i), got, ok, err)
		}
	}
	if v.Stats().PageReads == 0 {
		t.Error("freeze over a tiny cache reported no physical page reads")
	}
}

// TestFreezeViewStatsMerge checks that view activity lands in the owning
// tree's cumulative Stats.
func TestFreezeViewStatsMerge(t *testing.T) {
	tr := newTree(t, 512)
	for i := 0; i < 50; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tr.FreezeView(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().CacheHits
	if _, _, err := v.Get(key(7)); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().CacheHits <= before {
		t.Error("view node accesses not merged into Tree.Stats")
	}
}

// TestCorruptImageEndsInErrCorrupt rewrites pages of a sound tree — through
// the pager, so every checksum stays valid and a freeze accepts the image
// — into the two shapes a mixed-version tree can take beyond a looping
// leaf chain, and requires every read path over them, on the view and on
// the live tree, to end in ErrCorrupt: not to descend forever, and not to
// read an interior page as a leaf. The edits in place get the same
// treatment: a Put or Delete that lands on a leaf whose cells run off the
// page, or whose lengths contradict the keys around them, fails with
// ErrCorrupt before it has written a byte, and so do Scan and Verify.
func TestCorruptImageEndsInErrCorrupt(t *testing.T) {
	grow := func(t *testing.T, height int) *Tree {
		tr := newTree(t, 512)
		for i := 0; tr.Height() < height; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte{'v'}, 40)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	for _, tc := range []struct {
		name   string
		getOK  bool // a lookup never meets the damage
		damage func(t *testing.T) *Tree
	}{
		{"interior pages naming each other as child", false, func(t *testing.T) *Tree {
			tr := grow(t, 3)
			root, err := tr.loadNode(tr.root)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := tr.loadNode(root.next)
			if err != nil {
				t.Fatal(err)
			}
			if root.leaf || inner.leaf {
				t.Fatalf("fixture: pages %d and %d are not both interior", root.id, inner.id)
			}
			inner.next = root.id
			for i := range inner.children {
				inner.children[i] = root.id
			}
			if err := tr.storeNode(inner); err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		// A lookup ends in the first leaf, before the interior page linked
		// behind it.
		{"interior page in the leaf chain", true, func(t *testing.T) *Tree {
			tr := grow(t, 2)
			first := leafOf(t, tr, nil)
			first.next = tr.root
			if err := tr.storeNode(first); err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.damage(t)
			view, err := tr.FreezeView(nil)
			if err != nil {
				t.Fatalf("freeze rejected checksum-valid pages: %v", err)
			}
			every := func(k, v []byte) bool { return true }
			lookup := func(get func([]byte) ([]byte, bool, error)) func() error {
				return func() error {
					_, ok, err := get([]byte("key-00000"))
					if err == nil && !ok {
						return errors.New("key not found")
					}
					return err
				}
			}
			for _, r := range []struct {
				name   string
				wantOK bool
				read   func() error
			}{
				{"View.Scan", false, func() error { return view.Scan(nil, nil, every) }},
				{"Tree.Scan", false, func() error { return tr.Scan(nil, nil, every) }},
				{"View.Get", tc.getOK, lookup(view.Get)},
				{"Tree.Get", tc.getOK, lookup(tr.Get)},
			} {
				done := make(chan error, 1)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							done <- fmt.Errorf("panic: %v", r)
						}
					}()
					done <- r.read()
				}()
				select {
				case err := <-done:
					if r.wantOK && err != nil {
						t.Errorf("%s = %v, want the entry", r.name, err)
					}
					if !r.wantOK && !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s = %v, want ErrCorrupt", r.name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s still running after 5s", r.name)
				}
			}
		})
	}

	// second returns the offset of the leaf's second cell.
	second := func(payload []byte) int {
		_, _, cells, err := referenceCells(0, payload)
		if err != nil || len(cells) < 2 {
			t.Fatalf("fixture: %d cells, %v", len(cells), err)
		}
		return cells[1].off
	}
	for _, damage := range []struct {
		name string
		do   func(payload []byte)
	}{
		// The zero bytes past the last cell read as empty cells until the
		// walk leaves the page.
		{"cell count past the page", func(payload []byte) { binary.BigEndian.PutUint16(payload[1:3], 0xffff) }},
		{"first key longer than the page", func(payload []byte) { copy(payload[nodeHeaderSize+1:], "\xff\x7f") }},
		{"a cell that shares more bytes than the key before it has", func(payload []byte) { payload[second(payload)] = 0x7f }},
		// 8 shared and 120 more bytes on a page whose entries end at 126;
		// the cell still lies inside the page.
		{"a key longer than any entry", func(payload []byte) { payload[second(payload)+1] = 120 }},
		{"a varint that runs off the page", func(payload []byte) {
			binary.BigEndian.PutUint16(payload[1:3], 0xffff)
			copy(payload[len(payload)-2:], "\xff\xff")
		}},
	} {
		t.Run("edit in place: "+damage.name, func(t *testing.T) {
			tr := grow(t, 2)
			pg, err := tr.p.read(leafOf(t, tr, nil).id)
			if err != nil {
				t.Fatal(err)
			}
			damage.do(pg.payload())
			tr.p.markDirty(pg)
			before := append([]byte(nil), pg.payload()...)
			count := tr.count
			for name, edit := range map[string]func() error{
				"Put of a new key":  func() error { return tr.Put([]byte("key-00000a"), []byte("v")) },
				"Put of a held key": func() error { return tr.Put([]byte("key-00000"), []byte("v")) },
				"Delete": func() error {
					_, err := tr.Delete([]byte("key-00000"))
					return err
				},
			} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s panicked: %v", name, r)
						}
					}()
					if err := edit(); !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s = %v, want ErrCorrupt", name, err)
					}
				}()
				if !bytes.Equal(pg.payload(), before) || tr.count != count {
					t.Fatalf("%s changed the damaged page or the entry count", name)
				}
			}
			if err := tr.Scan(nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Scan = %v, want ErrCorrupt", err)
			}
			if err := tr.Verify(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Verify = %v, want ErrCorrupt", err)
			}
		})
	}

	// The searches take a cell's shared length for all the bytes it has in
	// common with the key before it, and cannot check that without the keys:
	// the walks that rebuild keys do — every scan, Verify and the scrubber
	// (decodeNode). "key-00001" behind "key-00000" is stored as shared 8,
	// unshared 1; shared 7, unshared 2 spells the same key.
	t.Run("a cell that stores a byte it shares", func(t *testing.T) {
		tr := grow(t, 2)
		pg, err := tr.p.read(leafOf(t, tr, nil).id)
		if err != nil {
			t.Fatal(err)
		}
		payload := pg.payload()
		at := second(payload)
		copy(payload[at+4:], payload[at+3:len(payload)-1])
		payload[at], payload[at+1], payload[at+3] = 7, 2, '0'
		tr.p.markDirty(pg)
		if n, err := referenceDecode(pg.id, payload); n != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("fixture: the reference reads the page as %+v, %v", n, err)
		}
		if err := tr.Scan(nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Scan = %v, want ErrCorrupt", err)
		}
		if err := tr.Verify(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Verify = %v, want ErrCorrupt", err)
		}
	})
}

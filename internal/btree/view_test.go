package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val%04d", i)) }

// TestFreezeViewSnapshotIsolation freezes a view per round and keeps
// mutating the live tree — overwrites, inserts, deletes, each copying a
// page the view shares before it first writes to it, then the checksums of
// a journal pass and of a Flush — while readers scan and probe the view:
// it must answer exactly from the frozen state, during (under go test
// -race, a writer that touches a shared payload is a reported race) and
// after, and the live tree must see every mutation.
func TestFreezeViewSnapshotIsolation(t *testing.T) {
	tr := newTree(t, 512)
	model := map[string]string{}
	put := func(i int, v string) {
		t.Helper()
		if err := tr.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[string(key(i))] = v
	}
	const n = 100
	for i := 0; i < n; i++ {
		put(i, string(val(i)))
	}
	for round := 1; round <= 6; round++ {
		v, err := tr.FreezeView(nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []kv
		for k, val := range model {
			want = append(want, kv{[]byte(k), []byte(val)})
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].k, want[j].k) < 0 })
		check := func() error {
			if v.Len() != len(want) {
				return fmt.Errorf("view Len = %d, want %d", v.Len(), len(want))
			}
			i := 0
			err := v.Scan(nil, nil, func(k, val []byte) bool {
				if i >= len(want) || !bytes.Equal(k, want[i].k) || !bytes.Equal(val, want[i].v) {
					return false
				}
				i++
				return true
			})
			if err != nil || i != len(want) {
				return fmt.Errorf("view scan stopped at entry %d of %d (%v)", i, len(want), err)
			}
			for j := round; j < len(want); j += 17 {
				if got, ok, err := v.Get(want[j].k); err != nil || !ok || !bytes.Equal(got, want[j].v) {
					return fmt.Errorf("view Get(%s) = %q, %v, %v; want %q", want[j].k, got, ok, err, want[j].v)
				}
			}
			return nil
		}
		stop, warm := make(chan struct{}), make(chan struct{}, 3)
		var readers sync.WaitGroup
		for r := 0; r < cap(warm); r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for pass := 0; ; pass++ {
					if err := check(); err != nil {
						t.Errorf("round %d, while the writer runs: %v", round, err)
						return
					}
					if pass == 0 {
						warm <- struct{}{}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		for r := 0; r < cap(warm); r++ {
			<-warm
		}
		live := fmt.Sprintf("LIVE%d", round)
		for i := round % 2; i < n; i += 2 {
			put(i, live)
		}
		if err := tr.DirtyPages(func(int, int, uint32, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		for i := round * n; i < (round+1)*n; i++ {
			put(i, string(val(i)))
		}
		for i := round * n; i < round*n+n/2; i++ {
			if ok, err := tr.Delete(key(i)); err != nil || !ok {
				t.Fatal(ok, err)
			}
			delete(model, string(key(i)))
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		readers.Wait()
		if err := check(); err != nil {
			t.Fatalf("round %d, after the writer: %v", round, err)
		}
		if _, ok, _ := v.Get(key(round * n)); ok {
			t.Errorf("round %d: view sees a key inserted after the freeze", round)
		}
		if got, ok, err := tr.Get(key(round % 2)); err != nil || !ok || string(got) != live {
			t.Fatalf("round %d: live Get = %q, %v, %v; want %s", round, got, ok, err, live)
		}
		if tr.Len() != len(model) {
			t.Fatalf("round %d: live Len = %d, model holds %d", round, tr.Len(), len(model))
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
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

// TestCorruptImageEndsInErrCorrupt rewrites pages of a sound tree — in the
// table, so no checksum is involved and a freeze hands the image out —
// into the two shapes a mixed-version tree can take beyond a looping
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
			tr.storeNode(inner)
			return tr
		}},
		// A lookup ends in the first leaf, before the interior page linked
		// behind it.
		{"interior page in the leaf chain", true, func(t *testing.T) *Tree {
			tr := grow(t, 2)
			first := leafOf(t, tr, nil)
			first.next = tr.root
			tr.storeNode(first)
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
			id := leafOf(t, tr, nil).id
			damage.do(tr.own(id))
			before := append([]byte(nil), payloadOf(tr, id)...)
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
				if !bytes.Equal(payloadOf(tr, id), before) || tr.count != count {
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
		id := leafOf(t, tr, nil).id
		payload := tr.own(id)
		at := second(payload)
		copy(payload[at+4:], payload[at+3:len(payload)-1])
		payload[at], payload[at+1], payload[at+3] = 7, 2, '0'
		if n, err := referenceDecode(id, payload); n != nil || !errors.Is(err, ErrCorrupt) {
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

package btree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

type kv struct{ k, v []byte }

// feed returns a Load source over entries.
func feed(entries []kv) func() ([]byte, []byte, error) {
	i := 0
	return func() ([]byte, []byte, error) {
		if i == len(entries) {
			return nil, nil, io.EOF
		}
		e := entries[i]
		i++
		return e.k, e.v, nil
	}
}

// fixedEntries returns n ascending entries of which exactly eight fill the
// 488 cell bytes of a 512-byte page: the first cell holds its 9-byte key
// whole (3 + 9 + 56 bytes), each of the next seven the one byte it does not
// share with the key before it (3 + 1 + 56).
func fixedEntries(n int) []kv {
	out := make([]kv, n)
	for i := range out {
		out[i] = kv{[]byte(fmt.Sprintf("k%08d", i)), bytes.Repeat([]byte{byte('a' + i%26)}, 56)}
	}
	return out
}

// randomEntries returns n ascending entries of random sizes, among them
// (every 50th) the largest entry a tree with the given limit accepts.
func randomEntries(rng *rand.Rand, n, maxEntry int) []kv {
	out := make([]kv, n)
	for i := range out {
		k := []byte(fmt.Sprintf("k%08d%s", i, strings.Repeat("x", rng.Intn(20))))
		vlen := rng.Intn(40)
		if i%50 == 7 {
			vlen = maxEntry - 8 - len(k)
		}
		v := make([]byte, vlen)
		rng.Read(v)
		out[i] = kv{k, v}
	}
	return out
}

// shapeKey returns the key function of the shape of keyShapes called name.
func shapeKey(name string) func(i int) []byte {
	for _, shape := range keyShapes {
		if shape.name == name {
			return shape.key
		}
	}
	panic("no key shape " + name)
}

// shapedEntries returns the entries of key(0..n-1) in key order, with
// values of random sizes and every 50th the largest the limit allows.
func shapedEntries(rng *rand.Rand, n, maxEntry int, key func(i int) []byte) []kv {
	out := make([]kv, n)
	for i := range out {
		k := key(i)
		v := make([]byte, rng.Intn(40))
		if i%50 == 7 {
			v = make([]byte, maxEntry-8-len(k))
		}
		rng.Read(v)
		out[i] = kv{k, v}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	return out
}

// scanAll collects a full scan.
func scanAll(t *testing.T, scan func(from, to []byte, fn func(k, v []byte) bool) error) []kv {
	t.Helper()
	var out []kv
	err := scan(nil, nil, func(k, v []byte) bool {
		out = append(out, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameEntries(t *testing.T, what string, got, want []kv) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
			t.Fatalf("%s: entry %d = %q=%x, want %q=%x", what, i, got[i].k, got[i].v, want[i].k, want[i].v)
		}
	}
}

// checkPacked walks the tree level by level and requires every page but
// the last of each level to be full to within one cell: the cell that
// opened the next page — on a leaf, less what its key shares with the last
// key of the page — must not have fitted. It returns the number of levels.
func checkPacked(t *testing.T, tr *Tree) int {
	t.Helper()
	firstKey := func(n *node) (k, v []byte) {
		for !n.leaf {
			var err error
			if n, err = tr.loadNode(n.next); err != nil {
				t.Fatal(err)
			}
		}
		return n.keys[0], n.vals[0]
	}
	level := []uint32{tr.root}
	for depth := 1; ; depth++ {
		var below []uint32
		var prev *node
		for _, id := range level {
			n, err := tr.loadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				k, v := firstKey(n)
				cell := 6 + len(k)
				if n.leaf {
					cell = len(referenceLeafCell(nil, prev.keys[len(prev.keys)-1], k, v))
				}
				if free := tr.payloadSize() - prev.encodedSize(); free >= cell {
					t.Errorf("level %d page %d has %d bytes free, the %d-byte cell after it would have fitted", depth, prev.id, free, cell)
				}
			}
			prev = n
			if !n.leaf {
				below = append(below, n.next)
				below = append(below, n.children...)
			}
		}
		if len(below) == 0 {
			return depth
		}
		level = below
	}
}

// TestLoadProperty loads seeded inputs — empty, one entry, exactly one
// page, one entry past a page, thousands of random sizes, and keys of the
// shapes of keyShapes — and requires the result to be the tree Put would
// have given, only packed: same scan, every key found, Verify clean,
// nothing in the file before the Flush, a frozen View and a reopened file
// agreeing, and random Puts and Deletes afterwards matching a map model.
func TestLoadProperty(t *testing.T) {
	const small, large = 512, 2048
	maxEntry := (small - pageHeaderSize) / 4
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name     string
		entries  []kv
		height   int // 0: whatever the packing gives
		pageSize int
	}{
		{"empty", nil, 1, small},
		{"one", fixedEntries(1), 1, small},
		{"one page", fixedEntries(8), 1, small},
		{"one past a page", fixedEntries(9), 2, small},
		{"random 300", randomEntries(rng, 300, maxEntry), 0, small},
		{"random 5000", randomEntries(rng, 5000, maxEntry), 0, small},
		{"runs 5000", shapedEntries(rng, 5000, maxEntry, func(i int) []byte { return runKey(i/700, uint64(i)) }), 0, small},
		{"uniform random 3000", shapedEntries(rng, 3000, maxEntry, shapeKey("uniform random")), 0, small},
		{"nothing shared 250", shapedEntries(rng, 250, maxEntry, shapeKey("nothing shared")), 0, small},
		{"long 3000", shapedEntries(rng, 3000, (large-pageHeaderSize)/4, shapeKey("long")), 0, large},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := storage.NewMemFile()
			tr, err := Create(f, tc.pageSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Load(feed(tc.entries)); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 0 {
				t.Errorf("the file holds %d bytes before the first Flush (%v)", size, err)
			}
			if tr.Len() != len(tc.entries) {
				t.Errorf("Len = %d, want %d", tr.Len(), len(tc.entries))
			}
			levels := checkPacked(t, tr)
			if tr.Height() != levels || (tc.height != 0 && levels != tc.height) {
				t.Errorf("Height = %d, the tree has %d levels, want %d", tr.Height(), levels, tc.height)
			}
			if err := tr.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
			sameEntries(t, "scan", scanAll(t, tr.Scan), tc.entries)
			view, err := tr.FreezeView(nil)
			if err != nil {
				t.Fatal(err)
			}
			if view.Len() != tr.Len() || view.Height() != tr.Height() {
				t.Errorf("view Len/Height = %d/%d, tree %d/%d", view.Len(), view.Height(), tr.Len(), tr.Height())
			}
			sameEntries(t, "view scan", scanAll(t, view.Scan), tc.entries)
			for _, e := range tc.entries {
				for what, get := range map[string]func([]byte) ([]byte, bool, error){"tree": tr.Get, "view": view.Get} {
					if v, ok, err := get(e.k); err != nil || !ok || !bytes.Equal(v, e.v) {
						t.Fatalf("%s Get(%q) = %x, %v, %v", what, e.k, v, ok, err)
					}
				}
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := re.Verify(); err != nil {
				t.Errorf("Verify after reopen: %v", err)
			}
			sameEntries(t, "scan after reopen", scanAll(t, re.Scan), tc.entries)

			// The packed tree keeps behaving like any other under updates.
			model := make(map[string]string, len(tc.entries))
			for _, e := range tc.entries {
				model[string(e.k)] = string(e.v)
			}
			for op := 0; op < 3000; op++ {
				k := fmt.Sprintf("k%08d", rng.Intn(len(tc.entries)+50))
				if len(tc.entries) > 0 && rng.Intn(2) == 0 {
					k = string(tc.entries[rng.Intn(len(tc.entries))].k)
				}
				if rng.Intn(3) == 0 {
					ok, err := tr.Delete([]byte(k))
					if _, in := model[k]; err != nil || ok != in {
						t.Fatalf("Delete(%s) = %v, %v; model has it: %v", k, ok, err, in)
					}
					delete(model, k)
					continue
				}
				v := strings.Repeat("v", rng.Intn(60))
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			want := make([]kv, 0, len(model))
			for k, v := range model {
				want = append(want, kv{[]byte(k), []byte(v)})
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].k, want[j].k) < 0 })
			sameEntries(t, "scan after updates", scanAll(t, tr.Scan), want)
			if err := tr.Verify(); err != nil {
				t.Errorf("Verify after updates: %v", err)
			}
		})
	}
}

// TestLoadRejects covers the inputs Load must refuse.
func TestLoadRejects(t *testing.T) {
	good := fixedEntries(20)
	unsorted := append([]kv(nil), good...)
	unsorted[11], unsorted[12] = unsorted[12], unsorted[11]
	duplicate := append([]kv(nil), good...)
	duplicate[12] = duplicate[11]
	oversized := append([]kv(nil), good...)
	oversized[12].v = make([]byte, 200)
	for _, tc := range []struct {
		name    string
		entries []kv
		fill    bool
	}{
		{"unsorted", unsorted, false},
		{"duplicate", duplicate, false},
		{"oversized", oversized, false},
		{"non-empty tree", good, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, 512)
			if tc.fill {
				if err := tr.Put([]byte("k"), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Load(feed(tc.entries)); err == nil {
				t.Error("Load succeeded")
			}
		})
	}
	// The source's own error comes back as it is.
	boom := errors.New("boom")
	tr := newTree(t, 512)
	err := tr.Load(func() ([]byte, []byte, error) { return nil, nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("Load = %v, want the source's error", err)
	}
}

// rewritePage changes one node in the flushed file behind f and stamps a
// valid checksum over the result: damage only a structural check finds.
func rewritePage(t *testing.T, f storage.File, pageSize int, id uint32, change func(n *node)) {
	t.Helper()
	buf := make([]byte, pageSize)
	off := int64(id) * int64(pageSize)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	n, err := decodeNode(id, buf[pageHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	change(n)
	n.encode(buf[pageHeaderSize:])
	stampPage(buf)
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFindsMisorderedTree damages a sound two-level tree in the two
// ways a faulty loader could, each under a valid page checksum: two cells
// of a leaf swapped, and a separator that routes the first key of its
// right child to the left one. Both lose entries from a probe without
// any page failing to decode, so only Verify's order checks see them.
func TestVerifyFindsMisorderedTree(t *testing.T) {
	const pageSize = 512
	entries := fixedEntries(40)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, f storage.File, tr *Tree) (lost []byte)
	}{
		{"swapped cells", func(t *testing.T, f storage.File, tr *Tree) []byte {
			leaf := leafOf(t, tr, entries[20].k)
			rewritePage(t, f, pageSize, leaf.id, func(n *node) {
				n.keys[0], n.keys[1] = n.keys[1], n.keys[0]
				n.vals[0], n.vals[1] = n.vals[1], n.vals[0]
			})
			return nil
		}},
		{"wrong separator", func(t *testing.T, f storage.File, tr *Tree) []byte {
			var lost []byte
			rewritePage(t, f, pageSize, tr.root, func(n *node) {
				right, err := tr.loadNode(n.children[1])
				if err != nil {
					t.Fatal(err)
				}
				lost = right.keys[0]
				n.keys[1] = right.keys[1]
			})
			return lost
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := storage.NewMemFile()
			tr, err := Create(f, pageSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Load(feed(entries)); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if tr.Height() != 2 {
				t.Fatalf("fixture has height %d, want 2", tr.Height())
			}
			lost := tc.damage(t, f, tr)
			re, err := Open(f)
			if err != nil {
				t.Fatal(err)
			}
			if lost != nil {
				if _, ok, err := re.Get(lost); err != nil || ok {
					t.Fatalf("Get(%q) on the damaged tree = %v, %v; the fixture should lose it silently", lost, ok, err)
				}
			}
			if err := re.Verify(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Verify = %v, want ErrCorrupt", err)
			}
		})
	}
}

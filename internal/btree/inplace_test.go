package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// referenceDecode is the copying page decoder as it stood before the
// in-place reader existed, kept verbatim as the independent reference:
// decodeNode is built on the cell walk now, so comparing those two alone
// would compare the walk with itself.
func referenceDecode(id uint32, buf []byte) (*node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("%w: page %d too small", ErrCorrupt, id)
	}
	n := &node{id: id}
	switch buf[0] {
	case typeLeaf:
		n.leaf = true
	case typeInternal:
	default:
		return nil, fmt.Errorf("%w: page %d has unknown type %d", ErrCorrupt, id, buf[0])
	}
	nkeys := int(binary.BigEndian.Uint16(buf[1:3]))
	n.next = binary.BigEndian.Uint32(buf[3:7])
	pos := nodeHeaderSize
	for i := 0; i < nkeys; i++ {
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, id, i)
		}
		kl := int(binary.BigEndian.Uint16(buf[pos : pos+2]))
		pos += 2
		if n.leaf {
			if pos+2 > len(buf) {
				return nil, fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, id, i)
			}
			vl := int(binary.BigEndian.Uint16(buf[pos : pos+2]))
			pos += 2
			if pos+kl+vl > len(buf) {
				return nil, fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, id, i)
			}
			n.keys = append(n.keys, append([]byte(nil), buf[pos:pos+kl]...))
			pos += kl
			n.vals = append(n.vals, append([]byte(nil), buf[pos:pos+vl]...))
			pos += vl
		} else {
			if pos+kl+4 > len(buf) {
				return nil, fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, id, i)
			}
			n.keys = append(n.keys, append([]byte(nil), buf[pos:pos+kl]...))
			pos += kl
			n.children = append(n.children, binary.BigEndian.Uint32(buf[pos:pos+4]))
			pos += 4
		}
	}
	return n, nil
}

// walkCells collects what the in-place reader yields for a page, checking
// on the way that every slice it hands out is capacity-capped.
func walkCells(t testing.TB, id uint32, buf []byte) (*node, error) {
	c, err := openCells(id, buf)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: c.leaf, next: c.next}
	for c.more() {
		k, v, child, err := c.cell()
		if err != nil {
			return nil, err
		}
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("page %d: cell slices not capacity-capped (key %d/%d, value %d/%d)", id, len(k), cap(k), len(v), cap(v))
		}
		n.keys = append(n.keys, append([]byte(nil), k...))
		if c.leaf {
			n.vals = append(n.vals, append([]byte(nil), v...))
		} else {
			n.children = append(n.children, child)
		}
	}
	return n, nil
}

func sameNode(a, b *node) bool {
	if a.leaf != b.leaf || a.next != b.next || len(a.keys) != len(b.keys) ||
		len(a.vals) != len(b.vals) || len(a.children) != len(b.children) {
		return false
	}
	for i := range a.keys {
		if !bytes.Equal(a.keys[i], b.keys[i]) {
			return false
		}
	}
	for i := range a.vals {
		if !bytes.Equal(a.vals[i], b.vals[i]) {
			return false
		}
	}
	for i := range a.children {
		if a.children[i] != b.children[i] {
			return false
		}
	}
	return true
}

// FuzzViewPage feeds arbitrary payload bytes to the three page readers —
// the in-place cell walk the View and Tree.Scan use, decodeNode built on
// it, and the pre-existing copying decoder — and requires that they all
// fail with ErrCorrupt or all yield the same cells in the same order, and
// that none panics or reads outside the page.
func FuzzViewPage(f *testing.F) {
	page := func(n *node) []byte {
		buf := make([]byte, 256)
		n.encode(buf)
		return buf
	}
	seeds := [][]byte{
		page(&node{leaf: true, next: 7, keys: [][]byte{[]byte("a"), []byte("bb"), {}}, vals: [][]byte{[]byte("1"), {}, []byte("333")}}),
		page(&node{next: 2, keys: [][]byte{[]byte("m"), []byte("t")}, children: []uint32{3, 4}}),
		page(&node{leaf: true}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:nodeHeaderSize+3]) // truncated inside the first cell
		f.Add(s[:nodeHeaderSize-1]) // shorter than the header
		for _, bit := range []int{0, 1*8 + 7, 2*8 + 2, nodeHeaderSize * 8, (nodeHeaderSize+2)*8 + 1} {
			flipped := append([]byte(nil), s...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		frozen := append([]byte(nil), buf...)
		want, wantErr := referenceDecode(1, buf)
		for name, read := range map[string]func() (*node, error){
			"in-place walk": func() (*node, error) { return walkCells(t, 1, buf) },
			"decodeNode":    func() (*node, error) { return decodeNode(1, buf) },
		} {
			got, err := read()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, reference decoder: %v", name, err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) || err.Error() != wantErr.Error() {
					t.Fatalf("%s: err = %v, reference decoder: %v", name, err, wantErr)
				}
				continue
			}
			if !sameNode(got, want) {
				t.Fatalf("%s yields %+v, reference decoder %+v", name, got, want)
			}
		}
		if !bytes.Equal(buf, frozen) {
			t.Fatal("reading a page changed it")
		}
	})
}

// modelTree is a Tree beside the sorted-map model of what it must hold.
type modelTree struct {
	t     *testing.T
	tr    *Tree
	model map[string][]byte
	rng   *rand.Rand
}

// someKey draws from a small key space, so puts overwrite, deletes hit and
// leaves empty out; it includes the zero-length key.
func (m *modelTree) someKey() []byte {
	switch i := m.rng.Intn(600); {
	case i == 0:
		return []byte{}
	case i%7 == 0:
		return []byte(fmt.Sprintf("k%04d/%s", i, bytes.Repeat([]byte{'x'}, i%23)))
	default:
		return []byte(fmt.Sprintf("k%04d", i))
	}
}

func (m *modelTree) someVal(key []byte) []byte {
	var v []byte
	switch m.rng.Intn(20) {
	case 0: // zero-length value
	case 1: // the largest entry the tree takes
		v = make([]byte, m.tr.maxEntry()-8-len(key))
	default:
		v = make([]byte, m.rng.Intn(30))
	}
	m.rng.Read(v)
	return v
}

// mutate applies n random Puts and Deletes (deleteShare of them deletes)
// to the tree and the model.
func (m *modelTree) mutate(n int, deleteShare float64) {
	m.t.Helper()
	for i := 0; i < n; i++ {
		k := m.someKey()
		if m.rng.Float64() < deleteShare {
			ok, err := m.tr.Delete(k)
			if _, had := m.model[string(k)]; err != nil || ok != had {
				m.t.Fatalf("Delete(%q) = %v, %v; model has it: %v", k, ok, err, had)
			}
			delete(m.model, string(k))
			continue
		}
		v := m.someVal(k)
		if err := m.tr.Put(k, v); err != nil {
			m.t.Fatal(err)
		}
		m.model[string(k)] = v
	}
}

func (m *modelTree) sorted() []kv {
	out := make([]kv, 0, len(m.model))
	for k, v := range m.model {
		out = append(out, kv{[]byte(k), v})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	return out
}

// someBound returns nil, the empty slice, a key of the model, a neighbour
// just below or above one, or something outside the key space.
func (m *modelTree) someBound(entries []kv) []byte {
	switch m.rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return []byte("a") // below every non-empty key
	case 3:
		return []byte("z") // above every key
	}
	if len(entries) == 0 {
		return m.someKey()
	}
	k := append([]byte(nil), entries[m.rng.Intn(len(entries))].k...)
	switch m.rng.Intn(3) {
	case 0: // just above the key
		k = append(k, 0)
	case 1: // between this key and its predecessor
		if len(k) > 0 {
			k[len(k)-1]--
			k = append(k, 0xff)
		}
	}
	return k
}

// check compares 1 000 random range scans and lookups of the view, the
// tree and the model.
func (m *modelTree) check(what string) {
	m.t.Helper()
	if err := m.tr.Verify(); err != nil {
		m.t.Fatalf("%s: Verify: %v", what, err)
	}
	view, err := m.tr.FreezeView(nil)
	if err != nil {
		m.t.Fatal(err)
	}
	entries := m.sorted()
	collect := func(scan func(from, to []byte, fn func(k, v []byte) bool) error, from, to []byte, limit int) []kv {
		var out []kv
		err := scan(from, to, func(k, v []byte) bool {
			if cap(k) != len(k) || cap(v) != len(v) {
				m.t.Fatalf("%s: scan handed out a slice with spare capacity (key %d/%d, value %d/%d)", what, len(k), cap(k), len(v), cap(v))
			}
			out = append(out, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			return len(out) != limit
		})
		if err != nil {
			m.t.Fatalf("%s: scan [%q, %q): %v", what, from, to, err)
		}
		return out
	}
	for i := 0; i < 1000; i++ {
		from, to := m.someBound(entries), m.someBound(entries)
		limit := 0 // no early stop
		if m.rng.Intn(4) == 0 {
			limit = 1 + m.rng.Intn(5)
		}
		var want []kv
		for _, e := range entries {
			if bytes.Compare(e.k, from) >= 0 && (to == nil || bytes.Compare(e.k, to) < 0) && (limit == 0 || len(want) < limit) {
				want = append(want, e)
			}
		}
		desc := fmt.Sprintf("%s: [%q, %q) limit %d", what, from, to, limit)
		sameEntries(m.t, desc+": View.Scan", collect(view.Scan, from, to, limit), want)
		sameEntries(m.t, desc+": Tree.Scan", collect(m.tr.Scan, from, to, limit), want)

		key := m.someBound(entries)
		wantV, wantOK := m.model[string(key)]
		for name, get := range map[string]func([]byte) ([]byte, bool, error){"View.Get": view.Get, "Tree.Get": m.tr.Get} {
			v, ok, err := get(key)
			if err != nil || ok != wantOK || !bytes.Equal(v, wantV) {
				m.t.Fatalf("%s: %s(%q) = %x, %v, %v; model %x, %v", what, name, key, v, ok, err, wantV, wantOK)
			}
		}
	}
}

// TestViewMatchesTreeAndModel is the differential test of the in-place
// read path: over trees grown by random Put/Delete (with leaves emptied
// and underflowing), packed by Load, and packed then mutated — all behind
// the smallest page cache, so Tree.Scan reads evicted pages back — every
// range scan and lookup of the frozen view equals the live tree's and the
// sorted-map model's.
func TestViewMatchesTreeAndModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr, err := Create(storage.NewMemFile(), 512, 8)
		if err != nil {
			t.Fatal(err)
		}
		m := &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rand.New(rand.NewSource(seed))}
		m.check(fmt.Sprintf("seed %d, empty tree", seed))
		m.mutate(3000, 0.3)
		m.check(fmt.Sprintf("seed %d, grown by Put/Delete", seed))
		m.mutate(3000, 0.9) // mostly deletes: leaves underflow and empty out
		m.check(fmt.Sprintf("seed %d, after mass deletion", seed))

		tr, err = Create(storage.NewMemFile(), 512, 8)
		if err != nil {
			t.Fatal(err)
		}
		m = &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 800; i++ {
			k := m.someKey()
			m.model[string(k)] = m.someVal(k)
		}
		if err := tr.Load(feed(m.sorted())); err != nil {
			t.Fatal(err)
		}
		m.check(fmt.Sprintf("seed %d, packed by Load", seed))
		m.mutate(2000, 0.5)
		m.check(fmt.Sprintf("seed %d, Load then Put/Delete", seed))
	}
}

// TestViewDoesNotAliasMutableState pins the aliasing contract of in-place
// reads. A view's pages are frozen copies: 1 000 Puts and Deletes on the
// live tree afterwards — which rewrite the pager's buffers and make later
// views share or replace pages — leave a second scan of the old view
// byte-equal to the first. And what Get returns is the caller's own copy.
func TestViewDoesNotAliasMutableState(t *testing.T) {
	tr, err := Create(storage.NewMemFile(), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rand.New(rand.NewSource(7))}
	m.mutate(2000, 0.2)
	view, err := tr.FreezeView(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := scanAll(t, view.Scan)
	sameEntries(t, "first scan", before, m.sorted())
	prev := view
	for i := 0; i < 10; i++ {
		m.mutate(100, 0.4)
		// Later generations share the old view's unchanged pages.
		if prev, err = tr.FreezeView(prev); err != nil {
			t.Fatal(err)
		}
	}
	sameEntries(t, "old view after 1000 more operations on the tree", scanAll(t, view.Scan), before)
	sameEntries(t, "newest view", scanAll(t, prev.Scan), m.sorted())

	var probe kv
	for _, e := range before {
		if len(e.v) > 0 {
			probe = e
			break
		}
	}
	got, ok, err := view.Get(probe.k)
	if err != nil || !ok || !bytes.Equal(got, probe.v) {
		t.Fatalf("Get(%q) = %x, %v, %v; want %x", probe.k, got, ok, err, probe.v)
	}
	for i := range got {
		got[i] ^= 0xff
	}
	again, _, err := view.Get(probe.k)
	if err != nil || !bytes.Equal(again, probe.v) {
		t.Fatalf("overwriting the slice Get returned changed the view: Get(%q) = %x, %v; want %x", probe.k, again, err, probe.v)
	}
	sameEntries(t, "old view after overwriting a Get result", scanAll(t, view.Scan), before)
}

// referenceCut is the reference's statement of where an overflowing leaf
// is cut after keys[i] was inserted into it (DESIGN.md "Leaf splits"),
// written on its own and not by calling the tree. A key that continues the
// run the page begins with (it has at least half of its bytes in common
// with the first key), is the last of that run on the page (no cell
// follows, or it is closer to its left neighbour than to its right one)
// and has at least half of the cells at or before it makes the cut fall at
// the end of the run: after the key when the cells up to it and one more
// cell of its size fit a page, before it when they do not. Every other key
// is cut at mid.
func referenceCut(keys, vals [][]byte, i, pageBytes int) int {
	common := func(a, b []byte) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}
	half, k := len(keys)/2, keys[i]
	continuesFirst := i > 0 && 2*common(keys[0], k) >= len(k)
	endsRun := i == len(keys)-1 || (i > 0 && common(keys[i-1], k) > common(k, keys[i+1]))
	if !continuesFirst || !endsRun || i+1 < half {
		return half
	}
	upToKey := nodeHeaderSize
	for j := 0; j <= i; j++ {
		upToKey += 4 + len(keys[j]) + len(vals[j])
	}
	if upToKey+4+len(k)+len(vals[i]) <= pageBytes {
		return i + 1
	}
	return i
}

// referenceLeafEdit is what the tree did to a leaf before Put and Delete
// edited pages in place — decode the page, change the slices, encode, and
// split when the node outgrew the page, at referenceCut for a new key and
// at mid for an overwrite that grew — kept from Tree.insert, Tree.splitLeaf
// and Tree.Delete as the independent reference. val == nil deletes key. It
// returns the image the leaf must have afterwards and, when the leaf split,
// that of the right sibling allocated as page rightID; neither half of a
// split may be empty.
func referenceLeafEdit(t *testing.T, prev []byte, id, rightID uint32, key, val []byte) (left, right []byte) {
	t.Helper()
	n, err := referenceDecode(id, prev)
	if err != nil {
		t.Fatal(err)
	}
	i, exact := n.searchLeaf(key)
	switch {
	case val == nil:
		if exact {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
		}
	case exact:
		n.vals[i] = append([]byte(nil), val...)
	default:
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = append([]byte(nil), key...)
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = append([]byte(nil), val...)
	}
	if n.encodedSize() > len(prev) {
		cut := len(n.keys) / 2
		if !exact {
			cut = referenceCut(n.keys, n.vals, i, len(prev))
		}
		if cut <= 0 || cut >= len(n.keys) {
			t.Fatalf("a split of %d cells at %d leaves a page empty", len(n.keys), cut)
		}
		r := &node{
			id:   rightID,
			leaf: true,
			next: n.next,
			keys: append([][]byte(nil), n.keys[cut:]...),
			vals: append([][]byte(nil), n.vals[cut:]...),
		}
		n.keys = n.keys[:cut]
		n.vals = n.vals[:cut]
		n.next = r.id
		right = make([]byte, len(prev))
		r.encode(right)
	}
	left = make([]byte, len(prev))
	n.encode(left)
	return left, right
}

// edit runs one Put (val != nil) or Delete (val == nil) on the tree and
// the model and requires the leaf it touched — and the sibling a split
// gave it — to be byte-equal to the reference's pages.
func (m *modelTree) edit(key, val []byte) {
	m.t.Helper()
	c, err := findLeaf(m.tr, m.tr.root, m.tr.height, key)
	if err != nil {
		m.t.Fatal(err)
	}
	id, rightID := c.id, m.tr.p.npages
	wantLeft, wantRight := referenceLeafEdit(m.t, append([]byte(nil), c.buf...), id, rightID, key, val)
	_, had := m.model[string(key)]
	what := fmt.Sprintf("Put(%q, %d bytes)", key, len(val))
	if val == nil {
		what = fmt.Sprintf("Delete(%q)", key)
		if ok, err := m.tr.Delete(key); err != nil || ok != had {
			m.t.Fatalf("%s = %v, %v; model has it: %v", what, ok, err, had)
		}
		delete(m.model, string(key))
	} else {
		if err := m.tr.Put(key, val); err != nil {
			m.t.Fatalf("%s: %v", what, err)
		}
		m.model[string(key)] = val
	}
	if m.tr.Len() != len(m.model) {
		m.t.Fatalf("%s: Len = %d, model holds %d", what, m.tr.Len(), len(m.model))
	}
	for _, pg := range []struct {
		id   uint32
		want []byte
	}{{id, wantLeft}, {rightID, wantRight}} {
		if pg.want == nil {
			continue
		}
		got, err := m.tr.p.read(pg.id)
		if err != nil {
			m.t.Fatal(err)
		}
		if !bytes.Equal(got.payload(), pg.want) {
			m.t.Fatalf("%s: page %d differs from decode, edit, encode of its previous image\n got %x\nwant %x", what, pg.id, got.payload(), pg.want)
		}
		if (val != nil || had) && (!got.dirty || !m.tr.p.changed[pg.id]) {
			m.t.Fatalf("%s: page %d was edited but not marked dirty and changed", what, pg.id)
		}
	}
}

// TestInPlaceEditsMatchReferencePages is the differential test of the
// in-place write path. Random Puts of new keys, overwrites (growing,
// shrinking, to and from zero length) and Deletes — hits and misses —
// run behind the smallest page cache over grown and over Load-packed
// trees, and after every single operation the page it touched is
// byte-equal to what the decoding path produced from the page's previous
// image; the tree then equals the model under Scan, Get, Len and Verify.
func TestInPlaceEditsMatchReferencePages(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr, err := Create(storage.NewMemFile(), 512, 8)
		if err != nil {
			t.Fatal(err)
		}
		m := &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rand.New(rand.NewSource(seed))}
		if seed == 3 { // start from packed leaves: every first Put into one splits it
			for i := 0; i < 800; i++ {
				k := m.someKey()
				m.model[string(k)] = m.someVal(k)
			}
			if err := tr.Load(feed(m.sorted())); err != nil {
				t.Fatal(err)
			}
		}
		for _, phase := range []struct {
			ops         int
			deleteShare float64
		}{{2500, 0.3}, {1500, 0.9}, {1000, 0.2}} {
			for i := 0; i < phase.ops; i++ {
				k := m.someKey()
				if m.rng.Float64() < phase.deleteShare {
					m.edit(k, nil)
					continue
				}
				v := m.someVal(k)
				if v == nil {
					v = []byte{}
				}
				m.edit(k, v)
			}
			m.check(fmt.Sprintf("seed %d after %d edits, %.0f%% deletes", seed, phase.ops, 100*phase.deleteShare))
		}
	}
}

// TestInPlacePutAtThePageBoundary puts the cell that exactly fills a leaf
// (written in place) and the one a byte too long (which splits it): seven
// 61-byte cells leave 61 of the 488 cell bytes of a 512-byte page.
func TestInPlacePutAtThePageBoundary(t *testing.T) {
	for _, extra := range []int{0, 1} {
		tr, err := Create(storage.NewMemFile(), 512, 8)
		if err != nil {
			t.Fatal(err)
		}
		m := &modelTree{t: t, tr: tr, model: map[string][]byte{}}
		entries := fixedEntries(8)
		for _, e := range entries[:7] {
			m.edit(e.k, e.v)
		}
		last := entries[7]
		m.edit(last.k, append(last.v, make([]byte, extra)...))
		if wantPages := uint32(2 + 2*extra); tr.p.npages != wantPages || tr.Height() != 1+extra {
			t.Fatalf("cell of %d bytes into 61 free: %d pages, height %d; want %d pages, height %d",
				61+extra, tr.p.npages, tr.Height(), wantPages, 1+extra)
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		sameEntries(t, "after the boundary put", scanAll(t, tr.Scan), m.sorted())
	}
}

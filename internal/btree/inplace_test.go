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

// refCell is one cell as the reference reads it off a page: where it lies,
// how many key bytes it takes from the cell before it, and what it holds.
type refCell struct {
	off, size, shared int
	key, val          []byte
	child             uint32
}

// common returns the number of leading bytes a and b agree on.
func common(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// referenceCells is the page format stated a second time, on its own: it
// shares no code with the cells walk, which decodeNode is built on, so
// comparing the two compares two readings of DESIGN.md "Page format" and
// not the walk with itself. A leaf cell is three uvarints — the bytes its
// key shares with the key before it on the page, the bytes it does not,
// the value's length — then the unshared key bytes and the value; an
// internal cell is a u16 key length, the key and a u32 child. A varint that
// does not end on the page, or states a length beyond the largest page
// there is (16 MiB), overruns the page like a cell body does.
func referenceCells(id uint32, buf []byte) (leaf bool, next uint32, out []refCell, err error) {
	if len(buf) < nodeHeaderSize {
		return false, 0, nil, fmt.Errorf("%w: page %d too small", ErrCorrupt, id)
	}
	switch buf[0] {
	case typeLeaf:
		leaf = true
	case typeInternal:
	default:
		return false, 0, nil, fmt.Errorf("%w: page %d has unknown type %d", ErrCorrupt, id, buf[0])
	}
	nkeys := int(binary.BigEndian.Uint16(buf[1:3]))
	next = binary.BigEndian.Uint32(buf[3:7])
	pos := nodeHeaderSize
	var prev []byte
	for i := 0; i < nkeys; i++ {
		overrun := fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, id, i)
		c := refCell{off: pos}
		if !leaf {
			if pos+2 > len(buf) {
				return false, 0, nil, overrun
			}
			kl := int(binary.BigEndian.Uint16(buf[pos : pos+2]))
			pos += 2
			if pos+kl+4 > len(buf) {
				return false, 0, nil, overrun
			}
			c.key = append([]byte(nil), buf[pos:pos+kl]...)
			pos += kl
			c.child = binary.BigEndian.Uint32(buf[pos : pos+4])
			pos += 4
		} else {
			var lens [3]int // shared, unshared, value
			for j := range lens {
				v, w := binary.Uvarint(buf[pos:])
				if w <= 0 || v > 1<<24 {
					return false, 0, nil, overrun
				}
				lens[j], pos = int(v), pos+w
			}
			shared, unshared, vl := lens[0], lens[1], lens[2]
			if pos+unshared+vl > len(buf) {
				return false, 0, nil, overrun
			}
			if shared > len(prev) {
				return false, 0, nil, fmt.Errorf("%w: page %d cell %d shares %d bytes with a key of %d", ErrCorrupt, id, i, shared, len(prev))
			}
			if shared+unshared > len(buf)/4 {
				return false, 0, nil, fmt.Errorf("%w: page %d cell %d has a key of %d bytes, more than an entry may take", ErrCorrupt, id, i, shared+unshared)
			}
			if shared < len(prev) && unshared > 0 && buf[pos] == prev[shared] {
				return false, 0, nil, fmt.Errorf("%w: page %d cell %d stores byte %d of its key, which the key before it has too", ErrCorrupt, id, i, shared)
			}
			c.shared = shared
			c.key = append(append([]byte(nil), prev[:shared]...), buf[pos:pos+unshared]...)
			pos += unshared
			c.val = append([]byte(nil), buf[pos:pos+vl]...)
			pos += vl
			prev = c.key
		}
		c.size = pos - c.off
		out = append(out, c)
	}
	return leaf, next, out, nil
}

// referenceDecode is referenceCells in the form of a node.
func referenceDecode(id uint32, buf []byte) (*node, error) {
	leaf, next, cells, err := referenceCells(id, buf)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf, next: next}
	for _, c := range cells {
		n.keys = append(n.keys, c.key)
		if leaf {
			n.vals = append(n.vals, c.val)
		} else {
			n.children = append(n.children, c.child)
		}
	}
	return n, nil
}

// referenceLeafCell appends the leaf cell of key and val behind prev's.
func referenceLeafCell(out, prev, key, val []byte) []byte {
	shared := common(prev, key)
	out = binary.AppendUvarint(out, uint64(shared))
	out = binary.AppendUvarint(out, uint64(len(key)-shared))
	out = binary.AppendUvarint(out, uint64(len(val)))
	return append(append(out, key[shared:]...), val...)
}

// referenceLeafSize returns the payload bytes a leaf of these cells takes:
// the first cell holds its key whole, every other one what it does not
// share with the one before it.
func referenceLeafSize(keys, vals [][]byte) int {
	var cells, prev []byte
	for i, k := range keys {
		cells, prev = referenceLeafCell(cells, prev, k, vals[i]), k
	}
	return nodeHeaderSize + len(cells)
}

// referenceEncode writes n as a page of size bytes, zero past the last
// cell; it panics when n does not fit.
func referenceEncode(n *node, size int) []byte {
	out := make([]byte, nodeHeaderSize, size)
	out[0] = typeInternal
	if n.leaf {
		out[0] = typeLeaf
	}
	binary.BigEndian.PutUint16(out[1:3], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(out[3:7], n.next)
	var prev []byte
	for i, k := range n.keys {
		if n.leaf {
			out, prev = referenceLeafCell(out, prev, k, n.vals[i]), k
			continue
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(k)))
		out = binary.BigEndian.AppendUint32(append(out, k...), n.children[i])
	}
	if len(out) > size {
		panic(fmt.Sprintf("node of %d bytes on a page of %d", len(out), size))
	}
	return out[:size]
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
// it, and the reference reader — and requires that they all fail with the
// same ErrCorrupt or all yield the same cells in the same order, and that
// none panics or reads outside the page.
func FuzzViewPage(f *testing.F) {
	page := func(n *node) []byte { return referenceEncode(n, 256) }
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
	// What prefix compression can get wrong, each on a leaf of the keys
	// "run-0001" and "run-0002" (11 and 4 bytes: the second cell starts at
	// nodeHeaderSize+11 and stores "2").
	run := page(&node{leaf: true, keys: [][]byte{[]byte("run-0001"), []byte("run-0002")}, vals: [][]byte{{}, {}}})
	second := nodeHeaderSize + 11
	for _, damage := range []func(b []byte){
		func(b []byte) {},                                                     // sound: shared 7, unshared 1
		func(b []byte) { b[second] = 9 },                                      // shares more bytes than the key before it has
		func(b []byte) { b[second+1] = 60 },                                   // a key of 67 bytes on a page whose entries end at 64
		func(b []byte) { b[second], b[second+1] = 0x80, 0x80 },                // 0 as a varint of three bytes
		func(b []byte) { copy(b[len(b)-2:], "\xff\xff"); b[1], b[2] = 0, 81 }, // 74 empty cells, then a varint that leaves the page
		func(b []byte) { b[second], b[second+1], b[second+3] = 6, 2, '0' },    // stores a byte it shares
	} {
		b := append([]byte(nil), run...)
		damage(b)
		f.Add(b)
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
		// The search and the edits in place go by the lengths alone. On a
		// page the reference reads as a sound leaf — keys ascending — they
		// do what the reference's keys say; on any other they end in an
		// error or in some edit inside the page, never in a panic.
		if len(buf) < nodeHeaderSize || buf[0] != typeLeaf {
			return
		}
		sound := wantErr == nil
		for i := 1; sound && i < len(want.keys); i++ {
			sound = bytes.Compare(want.keys[i-1], want.keys[i]) < 0
		}
		targets := [][]byte{{}, {0xff}, buf[nodeHeaderSize:min(len(buf), nodeHeaderSize+9)]}
		if sound {
			targets = append(targets, want.keys...)
		}
		for _, target := range targets {
			page := append([]byte(nil), buf...)
			c, err := openCells(1, page)
			if err != nil {
				t.Fatal(err)
			}
			at, err := c.locate(target)
			if err != nil {
				if sound || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("locate(%x) = %v on a page the reference reads with %v", target, err, wantErr)
				}
				continue
			}
			model := &node{leaf: true}
			if sound {
				model.next, model.keys, model.vals = want.next, append([][]byte(nil), want.keys...), append([][]byte(nil), want.vals...)
			}
			i := sort.Search(len(model.keys), func(i int) bool { return bytes.Compare(model.keys[i], target) >= 0 })
			switch held := i < len(model.keys) && bytes.Equal(model.keys[i], target); {
			case sound && at.found != held:
				t.Fatalf("locate(%x) found = %v, the reference's keys say %v", target, at.found, held)
			case at.found:
				c.removeAt(at)
			case len(target) > len(page)/4 || !c.insertAt(at, target, []byte("v")):
				continue
			}
			if !sound {
				continue
			}
			if at.found {
				model.keys, model.vals = append(model.keys[:i], model.keys[i+1:]...), append(model.vals[:i], model.vals[i+1:]...)
			} else {
				model.keys = append(model.keys[:i], append([][]byte{target}, model.keys[i:]...)...)
				model.vals = append(model.vals[:i], append([][]byte{[]byte("v")}, model.vals[i:]...)...)
			}
			binary.BigEndian.PutUint16(page[1:3], uint16(len(model.keys)))
			if got, err := referenceDecode(1, page); err != nil || !sameNode(got, model) {
				t.Fatalf("after the edit of %x in place the reference reads %+v, %v; want %+v", target, got, err, model)
			}
		}
	})
}

// keyShapes are the key populations the model tests run over, each a
// function from i in [0, 600) to a key and the page size that takes it.
var keyShapes = []struct {
	name     string
	pageSize int
	key      func(i int) []byte
}{
	// Short keys of several lengths, the zero-length key among them.
	{"mixed", 512, func(i int) []byte {
		switch {
		case i == 0:
			return []byte{}
		case i%7 == 0:
			return []byte(fmt.Sprintf("k%04d/%s", i, bytes.Repeat([]byte{'x'}, i%23)))
		default:
			return []byte(fmt.Sprintf("k%04d", i))
		}
	}},
	// internal/core's: seven runs of keys equal in their first 20 bytes.
	{"runs", 512, func(i int) []byte { return runKey(i%7, uint64(i)<<12) }},
	{"uniform random", 512, func(i int) []byte {
		k := make([]byte, 28)
		for w := 0; w < 3; w++ {
			binary.BigEndian.PutUint64(k[8*w:], uint64(i+1)*(0x9e3779b97f4a7c15+2*uint64(w)))
		}
		return k
	}},
	// No two of them agree on their first byte.
	{"nothing shared", 512, func(i int) []byte { return append([]byte{byte(i % 251)}, "-shares-nothing"...) }},
	// Shared and unshared lengths of 128 and more: varints of two bytes.
	{"long", 2048, func(i int) []byte {
		return append(bytes.Repeat([]byte{'p'}, 130+i%60), fmt.Sprintf("%04d", i)...)
	}},
}

// modelTree is a Tree beside the sorted-map model of what it must hold.
type modelTree struct {
	t     *testing.T
	tr    *Tree
	model map[string][]byte
	rng   *rand.Rand
	key   func(i int) []byte // nil: keyShapes[0]'s
}

// newModelTree returns an empty tree for keys of shape.
func newModelTree(t *testing.T, shape int, seed int64) *modelTree {
	t.Helper()
	tr, err := Create(storage.NewMemFile(), keyShapes[shape].pageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &modelTree{t: t, tr: tr, model: map[string][]byte{}, rng: rand.New(rand.NewSource(seed)), key: keyShapes[shape].key}
}

// someKey draws from a small key space, so puts overwrite, deletes hit and
// leaves empty out.
func (m *modelTree) someKey() []byte {
	if m.key == nil {
		m.key = keyShapes[0].key
	}
	return m.key(m.rng.Intn(600))
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

// checkSeeks holds the search that compares through the shared lengths
// (cells.seek) against the plain one — rebuild every key, bytes.Compare —
// on every leaf of the tree: for each key of the page, its neighbours just
// below and above, the empty key and one beyond the page, seek must stop at
// the cell the reference's keys put the target at, report the same common
// prefixes with both neighbours, and leave that cell to be read next; and
// every page must be the bytes the reference encoder writes for its cells.
func (m *modelTree) checkSeeks(what string) {
	m.t.Helper()
	for id := uint32(1); id < uint32(len(m.tr.pages)); id++ {
		buf := append([]byte(nil), payloadOf(m.tr, id)...)
		leaf, next, cells, err := referenceCells(id, buf)
		if err != nil {
			m.t.Fatalf("%s: %v", what, err)
		}
		n := &node{id: id, leaf: leaf, next: next}
		targets := [][]byte{{}, bytes.Repeat([]byte{0xff}, 30)}
		for _, c := range cells {
			n.keys, n.vals, n.children = append(n.keys, c.key), append(n.vals, c.val), append(n.children, c.child)
			above := append(append([]byte(nil), c.key...), 0)
			targets = append(targets, c.key, above)
			if len(c.key) > 0 {
				below := append([]byte(nil), above...)
				below[len(c.key)-1]--
				below[len(c.key)] = 0xff
				targets = append(targets, below, c.key[:len(c.key)-1], c.key[:len(c.key)/2])
			}
		}
		if !bytes.Equal(buf, referenceEncode(n, len(buf))) {
			m.t.Fatalf("%s: page %d is not the encoding of its cells", what, id)
		}
		if !leaf {
			continue
		}
		for _, target := range targets {
			i := sort.Search(len(cells), func(i int) bool { return bytes.Compare(cells[i].key, target) >= 0 })
			want := slot{off: nodeHeaderSize}
			if len(cells) > 0 {
				want.off = cells[len(cells)-1].off + cells[len(cells)-1].size
			}
			if i > 0 {
				want.pred = common(target, cells[i-1].key)
			}
			if i < len(cells) {
				want.off, want.succ, want.found = cells[i].off, common(target, cells[i].key), bytes.Equal(target, cells[i].key)
			}
			c, err := openCells(id, buf)
			if err != nil {
				m.t.Fatal(err)
			}
			got, err := c.seek(target)
			if err != nil || got != want || c.pos != want.off || c.i != i {
				m.t.Fatalf("%s: page %d: seek(%x) = %+v, %v, next cell %d at %d; the keys put it at %+v, cell %d", what, id, target, got, err, c.i, c.pos, want, i)
			}
		}
	}
}

// check compares 1 000 random range scans and lookups of the view, the
// tree and the model, and the tree's last entry of each unlimited range.
func (m *modelTree) check(what string) {
	m.t.Helper()
	if err := m.tr.Verify(); err != nil {
		m.t.Fatalf("%s: Verify: %v", what, err)
	}
	m.checkSeeks(what)
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
		if limit == 0 {
			k, v, ok, err := m.tr.Last(from, to)
			if err != nil || ok != (len(want) > 0) || ok && (!bytes.Equal(k, want[len(want)-1].k) || !bytes.Equal(v, want[len(want)-1].v)) {
				m.t.Fatalf("%s: Tree.Last = %q, %x, %v, %v; the last of %d entries in range", desc, k, v, ok, err, len(want))
			}
		}

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
// and underflowing), packed by Load, and packed then mutated — for
// every shape of key in keyShapes — every range scan and lookup of the
// frozen view equals the live tree's and the sorted-map model's, and every
// page passes checkSeeks.
func TestViewMatchesTreeAndModel(t *testing.T) {
	for shape := range keyShapes {
		for seed := int64(1); seed <= 3; seed++ {
			if shape > 0 && seed > 1 {
				break // the other shapes run one seed each
			}
			name := fmt.Sprintf("%s keys, seed %d", keyShapes[shape].name, seed)
			m := newModelTree(t, shape, seed)
			m.check(name + ", empty tree")
			m.mutate(3000, 0.3)
			m.check(name + ", grown by Put/Delete")
			m.mutate(3000, 0.9) // mostly deletes: leaves underflow and empty out
			m.check(name + ", after mass deletion")

			m = newModelTree(t, shape, seed)
			for i := 0; i < 800; i++ {
				k := m.someKey()
				m.model[string(k)] = m.someVal(k)
			}
			if err := m.tr.Load(feed(m.sorted())); err != nil {
				t.Fatal(err)
			}
			m.check(name + ", packed by Load")
			m.mutate(2000, 0.5)
			m.check(name + ", Load then Put/Delete")
		}
	}
}

// TestViewDoesNotAliasMutableState pins the aliasing contract of in-place
// reads. A view's pages are frozen: 1 000 Puts and Deletes on the live
// tree afterwards — which clone the pages they change and make later
// views share or replace pages — leave a second scan of the old view
// byte-equal to the first. And what Get returns is the caller's own copy.
func TestViewDoesNotAliasMutableState(t *testing.T) {
	tr, err := Create(storage.NewMemFile(), 512, 0)
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
	half, k := len(keys)/2, keys[i]
	continuesFirst := i > 0 && 2*common(keys[0], k) >= len(k)
	endsRun := i == len(keys)-1 || (i > 0 && common(keys[i-1], k) > common(k, keys[i+1]))
	if !continuesFirst || !endsRun || i+1 < half {
		return half
	}
	oneMore := len(referenceLeafCell(nil, keys[i-1], k, vals[i]))
	if referenceLeafSize(keys[:i+1], vals[:i+1])+oneMore <= pageBytes {
		return i + 1
	}
	return i
}

// referenceGrownCut is the reference's statement of where an overflowing
// leaf of n cells is cut after an overwrite grew cell i: beside it, before
// it when it is in the second half, after it when it is in the first — and
// never so that a page is left without a cell.
func referenceGrownCut(n, i int) int {
	cut := i + 1
	if i >= n/2 {
		cut = i
	}
	return min(max(cut, 1), n-1)
}

// referenceLeafEdit is what the tree did to a leaf before Put and Delete
// edited pages in place — decode the page, change the slices, encode, and
// split when the node outgrew the page, at referenceCut for a new key and
// at referenceGrownCut for an overwrite that grew, and where the left page is fullest
// when that cut leaves a half too large for its page (the right half's
// first cell is stored whole) — as the independent reference: it decodes,
// measures and encodes with the reference's own functions. val == nil
// deletes key. It returns the image the leaf must have afterwards and, when
// the leaf split, that of the right sibling allocated as page rightID;
// neither half of a split may be empty.
func referenceLeafEdit(t *testing.T, prev []byte, id, rightID uint32, key, val []byte) (left, right []byte) {
	t.Helper()
	n, err := referenceDecode(id, prev)
	if err != nil {
		t.Fatal(err)
	}
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
	exact := i < len(n.keys) && bytes.Equal(n.keys[i], key)
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
	if referenceLeafSize(n.keys, n.vals) > len(prev) {
		cut := referenceCut(n.keys, n.vals, i, len(prev))
		if exact {
			cut = referenceGrownCut(len(n.keys), i)
		}
		if referenceLeafSize(n.keys[:cut], n.vals[:cut]) > len(prev) || referenceLeafSize(n.keys[cut:], n.vals[cut:]) > len(prev) {
			for cut = 1; referenceLeafSize(n.keys[:cut+1], n.vals[:cut+1]) <= len(prev); cut++ {
			}
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
		right = referenceEncode(r, len(prev))
	}
	return referenceEncode(n, len(prev)), right
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
	id, rightID := c.id, uint32(len(m.tr.pages))
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
		if got := payloadOf(m.tr, pg.id); !bytes.Equal(got, pg.want) {
			m.t.Fatalf("%s: page %d differs from decode, edit, encode of its previous image\n got %x\nwant %x", what, pg.id, got, pg.want)
		}
		if (val != nil || had) && (!m.tr.dirty.has(pg.id) || !m.tr.owned.has(pg.id)) {
			m.t.Fatalf("%s: page %d was edited but not marked dirty and the writer's own", what, pg.id)
		}
	}
}

// TestInPlaceEditsMatchReferencePages is the differential test of the
// in-place write path. Random Puts of new keys, overwrites (growing,
// shrinking, to and from zero length) and Deletes — hits and misses —
// run over grown and over Load-packed
// trees, for every shape of key in keyShapes, and after every single
// operation the page it touched is byte-equal to what the reference's
// decode, edit and encode produce from the page's previous image; the tree
// then equals the model under Scan, Get, Len and Verify.
func TestInPlaceEditsMatchReferencePages(t *testing.T) {
	for shape := range keyShapes {
		for seed := int64(1); seed <= 3; seed++ {
			if shape > 0 && seed < 3 {
				continue // the other shapes run the seed that starts from packed leaves
			}
			m := newModelTree(t, shape, seed)
			if seed == 3 { // start from packed leaves: every first Put into one splits it
				for i := 0; i < 800; i++ {
					k := m.someKey()
					m.model[string(k)] = m.someVal(k)
				}
				if err := m.tr.Load(feed(m.sorted())); err != nil {
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
				m.check(fmt.Sprintf("%s keys, seed %d after %d edits, %.0f%% deletes", keyShapes[shape].name, seed, phase.ops, 100*phase.deleteShare))
			}
		}
	}
}

// TestInPlaceEditsReencodeTheSuccessor names the edits whose neighbour
// changes: a cell stores what its key does not share with the one before
// it, so a Put re-encodes the cell behind the new one and a Delete the cell
// behind the removed one. Each case is one edit of the leaf
//
//	"run-a-0001", "run-a-0005", "run-b-0001"
//
// through the differential oracle, with the lengths the cell behind the
// edit has before and after spelled out.
func TestInPlaceEditsReencodeTheSuccessor(t *testing.T) {
	start := []string{"run-a-0001", "run-a-0005", "run-b-0001"}
	for _, tc := range []struct {
		name         string
		key          string
		del          bool
		behind       string // the key of the cell behind the edit; "" if none
		before, want [2]int // its shared and unshared lengths
	}{
		{"put as first cell: the old first cell stops being whole", "run-a-0000", false, "run-a-0001", [2]int{0, 10}, [2]int{9, 1}},
		{"put in the middle, successor unchanged", "run-a-0003", false, "run-a-0005", [2]int{9, 1}, [2]int{9, 1}},
		{"put at the end of a run, the next run's cell unchanged", "run-a-9", false, "run-b-0001", [2]int{4, 6}, [2]int{4, 6}},
		{"put that makes its successor share more", "run-b-0", false, "run-b-0001", [2]int{4, 6}, [2]int{7, 3}},
		{"put as last cell", "run-c", false, "", [2]int{}, [2]int{}},
		{"delete the first cell: its successor becomes whole", "run-a-0001", true, "run-a-0005", [2]int{9, 1}, [2]int{0, 10}},
		{"delete a cell whose successor shared no more than it did", "run-a-0005", true, "run-b-0001", [2]int{4, 6}, [2]int{4, 6}},
		{"delete the last cell", "run-b-0001", true, "", [2]int{}, [2]int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModelTree(t, 0, 1)
			for _, k := range start {
				m.edit([]byte(k), []byte("v"))
			}
			lengths := func() [2]int {
				_, _, cells, err := referenceCells(m.tr.root, payloadOf(m.tr, m.tr.root))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					if string(c.key) == tc.behind {
						return [2]int{c.shared, len(c.key) - c.shared}
					}
				}
				return [2]int{}
			}
			if got := lengths(); got != tc.before {
				t.Fatalf("fixture: %q shares %d bytes and stores %d, want %v", tc.behind, got[0], got[1], tc.before)
			}
			if tc.del {
				m.edit([]byte(tc.key), nil)
			} else {
				m.edit([]byte(tc.key), []byte("new"))
			}
			if got := lengths(); got != tc.want {
				t.Errorf("%q shares %d bytes and stores %d after the edit, want %v", tc.behind, got[0], got[1], tc.want)
			}
			m.check(tc.name)
		})
	}
	// A cell that must grow when the one before it goes: "run-a-0005" shares
	// 9 bytes with "run-a-0001", which shares 4 with "run-0"; without it the
	// cell takes over "a-000" from the removed one.
	t.Run("delete a cell whose successor must grow", func(t *testing.T) {
		m := newModelTree(t, 0, 1)
		for _, k := range []string{"run-0", "run-a-0001", "run-a-0005"} {
			m.edit([]byte(k), []byte("v"))
		}
		m.edit([]byte("run-a-0001"), nil)
		_, _, cells, err := referenceCells(m.tr.root, payloadOf(m.tr, m.tr.root))
		if err != nil || len(cells) != 2 || cells[1].shared != 4 || string(cells[1].key) != "run-a-0005" {
			t.Fatalf("after the delete: %+v, %v; want run-a-0005 sharing 4 bytes with run-0", cells, err)
		}
		m.check("successor grown")
	})
}

// TestInPlacePutAtThePageBoundary puts the cell that exactly fills a leaf
// (written in place) and the one a byte too long (which splits it): the
// first seven of fixedEntries' cells leave 60 of the 488 cell bytes of a
// 512-byte page.
func TestInPlacePutAtThePageBoundary(t *testing.T) {
	for _, extra := range []int{0, 1} {
		tr, err := Create(storage.NewMemFile(), 512, 0)
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
		if wantPages := uint32(2 + 2*extra); uint32(len(tr.pages)) != wantPages || tr.Height() != 1+extra {
			t.Fatalf("cell of %d bytes into 60 free: %d pages, height %d; want %d pages, height %d",
				60+extra, uint32(len(tr.pages)), tr.Height(), wantPages, 1+extra)
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		sameEntries(t, "after the boundary put", scanAll(t, tr.Scan), m.sorted())
	}
}

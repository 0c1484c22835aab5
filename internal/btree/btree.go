package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/fix-index/fix/internal/storage"
)

const (
	magic = "FIXBT003" // 003: prefix-compressed leaf cells (002: checksummed page headers)
	// DefaultPageSize is the page size used unless overridden.
	DefaultPageSize = 4096
	// DefaultCacheSize is the default number of cached pages.
	DefaultCacheSize = 256
	// maxPageSize is the largest page Open accepts: no length on a page is
	// larger.
	maxPageSize = 1 << 24
)

// Tree is a disk-based B+tree with byte-string keys and values. Keys are
// unique; Put overwrites. Keys and values must individually fit in a
// quarter page so that splits always succeed.
//
// Every exported operation takes an internal mutex, so a Tree is safe for
// concurrent use; even read-only operations need the exclusion because
// they move pages through the LRU cache. Scan holds the lock for the
// whole pass, so scan callbacks must not call back into the same Tree.
// For mutex-free concurrent reads, FreezeView materializes an immutable
// View that many goroutines can Get/Scan without any lock.
type Tree struct {
	mu     sync.Mutex
	p      *pager // guarded by mu (the pager owns the page cache, I/O counters, and npages)
	root   uint32 // guarded by mu
	height uint32 // guarded by mu
	count  uint64 // guarded by mu
	vs     viewStats
}

// Create initializes an empty tree on f.
func Create(f storage.File, pageSize, cacheSize int) (*Tree, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 256 {
		return nil, fmt.Errorf("btree: page size %d too small", pageSize)
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	t := &Tree{p: newPager(f, pageSize, cacheSize)}
	// Page 0 is the meta page.
	if _, err := t.p.alloc(); err != nil {
		return nil, err
	}
	rootPg, err := t.p.alloc()
	if err != nil {
		return nil, err
	}
	rootNode := &node{id: rootPg.id, leaf: true}
	rootNode.encode(rootPg.payload())
	t.p.markDirty(rootPg)
	t.root = rootPg.id
	t.height = 1
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from f. Corruption of the meta page — a bad
// magic, an implausible page size, or a checksum mismatch — is reported as
// ErrCorrupt so callers can degrade gracefully instead of mis-reading the
// tree.
func Open(f storage.File, cacheSize int) (*Tree, error) {
	// The page size must be known before the meta page can be
	// checksum-verified, so peek at the raw header first.
	var hdr [pageHeaderSize + 40]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: reading meta: %v", ErrCorrupt, err)
	}
	raw := hdr[pageHeaderSize:]
	if string(raw[:8]) == "FIXBT002" {
		return nil, fmt.Errorf("%w: the file is in page format FIXBT002, this version reads and writes %s (prefix-compressed leaf cells): rebuild the index — fixindex repair, or the maintainer of a served database does it", ErrCorrupt, magic)
	}
	if string(raw[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:8])
	}
	pageSize := int(binary.BigEndian.Uint32(raw[8:12]))
	if pageSize < 256 || pageSize > maxPageSize {
		return nil, fmt.Errorf("%w: implausible page size %d", ErrCorrupt, pageSize)
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	t := &Tree{p: newPager(f, pageSize, cacheSize)}
	pg, err := t.p.read(0)
	if err != nil {
		return nil, err
	}
	meta := pg.payload()
	t.root = binary.BigEndian.Uint32(meta[12:16])
	t.p.npages = binary.BigEndian.Uint32(meta[16:20])
	t.count = binary.BigEndian.Uint64(meta[20:28])
	t.height = binary.BigEndian.Uint32(meta[28:32])
	if t.p.npages < 2 || t.root == 0 || t.root >= t.p.npages || t.height == 0 {
		return nil, fmt.Errorf("%w: meta page: npages=%d root=%d height=%d", ErrCorrupt, t.p.npages, t.root, t.height)
	}
	return t, nil
}

func (t *Tree) writeMeta() error {
	pg, err := t.p.read(0)
	if err != nil {
		return err
	}
	meta := pg.payload()
	copy(meta[:8], magic)
	binary.BigEndian.PutUint32(meta[8:12], uint32(t.p.pageSize))
	binary.BigEndian.PutUint32(meta[12:16], t.root)
	binary.BigEndian.PutUint32(meta[16:20], t.p.npages)
	binary.BigEndian.PutUint64(meta[20:28], t.count)
	binary.BigEndian.PutUint32(meta[28:32], t.height)
	t.p.markDirty(pg)
	return nil
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.count)
}

// Height returns the height of the tree (1 = a single leaf).
func (t *Tree) Height() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.height)
}

// Size returns the file size in bytes (pages allocated × page size).
func (t *Tree) Size() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.p.npages) * int64(t.p.pageSize)
}

// Stats returns a snapshot of I/O counters: the pager's, merged with the
// counters of every View frozen from this tree, so a caller differencing
// Stats around a query sees the same deltas whether the query ran against
// the live tree or a frozen view.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	s := t.p.stats
	t.mu.Unlock()
	vs := t.vs.load()
	s.PageReads += vs.PageReads
	s.CacheHits += vs.CacheHits
	return s
}

// ResetStats zeroes the pager and view counters.
func (t *Tree) ResetStats() {
	t.mu.Lock()
	t.p.stats = Stats{}
	t.mu.Unlock()
	t.vs.pageReads.Store(0)
	t.vs.cacheHits.Store(0)
}

// Flush writes all dirty pages and the meta page.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flush()
}

func (t *Tree) flush() error {
	if err := t.writeMeta(); err != nil {
		return err
	}
	return t.p.flush()
}

// payloadSize is the space available to a node on one page.
func (t *Tree) payloadSize() int { return t.p.pageSize - pageHeaderSize }

func (t *Tree) maxEntry() int { return t.payloadSize() / 4 }

// checkEntry is the one size test for everything that writes an entry:
// entries stay within a quarter page, so a split always leaves room.
func (t *Tree) checkEntry(key, val []byte) error {
	if n := len(key) + len(val) + 8; n > t.maxEntry() {
		return fmt.Errorf("btree: entry of %d bytes (key %d, value %d, 8 of overhead) exceeds max %d", n, len(key), len(val), t.maxEntry())
	}
	return nil
}

func (t *Tree) loadNode(id uint32) (*node, error) {
	pg, err := t.p.read(id)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, pg.payload())
}

func (t *Tree) storeNode(n *node) error {
	pg, err := t.p.read(n.id)
	if err != nil {
		return err
	}
	n.encode(pg.payload())
	t.p.markDirty(pg)
	return nil
}

// cells opens page id from the pager; the result is valid until the next
// pager call.
func (t *Tree) cells(id uint32) (cells, error) {
	pg, err := t.p.read(id)
	if err != nil {
		return cells{}, err
	}
	return openCells(id, pg.payload())
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return get(t, t.root, t.height, key)
}

// editLeaf descends to the leaf whose key range holds key and locates key
// on it for an edit in place. The pager hands out the same buffer until
// it evicts the page, and the leaf is the page it read last, so leaf.buf
// is the live page until the next pager call.
func (t *Tree) editLeaf(key []byte) (leaf cells, at slot, err error) {
	if leaf, err = findLeaf(t, t.root, t.height, key); err == nil {
		at, err = leaf.locate(key)
	}
	return leaf, at, err
}

// edited finishes an edit in place of a leaf that now holds n cells.
func (t *Tree) edited(leaf cells, n int) {
	binary.BigEndian.PutUint16(leaf.buf[1:3], uint16(n))
	t.p.markDirty(t.p.cache[leaf.id])
}

// Put inserts or overwrites the entry for key. A new key whose cell fits
// on its leaf is written into the page where it lies (cells.insertAt): the
// cell after it is re-encoded against it, the cells behind move up and the
// count grows by one, which leaves the page byte for byte what decoding it,
// inserting and node.encode produce — every page is zero past its last
// cell. An overwrite, and a leaf with no room, go through insert.
func (t *Tree) Put(key, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkEntry(key, val); err != nil {
		return err
	}
	leaf, at, err := t.editLeaf(key)
	if err != nil {
		return err
	}
	if !at.found && leaf.insertAt(at, key, val) {
		t.edited(leaf, leaf.n+1)
		t.count++
		return nil
	}
	sepKey, newChild, grew, added, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if added {
		t.count++
	}
	if grew {
		// Root split: create a new internal root.
		pg, err := t.p.alloc()
		if err != nil {
			return err
		}
		newRoot := &node{
			id:       pg.id,
			next:     t.root, // leftmost child
			keys:     [][]byte{sepKey},
			children: []uint32{newChild},
		}
		newRoot.encode(pg.payload())
		t.p.markDirty(pg)
		t.root = pg.id
		t.height++
	}
	return nil
}

// insert descends to the leaf, inserts, and propagates splits upward.
// It returns (separator, right sibling id, split?, newEntry?).
func (t *Tree) insert(id uint32, key, val []byte) ([]byte, uint32, bool, bool, error) {
	n, err := t.loadNode(id)
	if err != nil {
		return nil, 0, false, false, err
	}
	if n.leaf {
		i, exact := n.searchLeaf(key)
		if exact {
			// Overwrites may grow the entry past the page capacity, in
			// which case the leaf splits like a fresh insert would.
			n.vals[i] = append([]byte(nil), val...)
			if n.encodedSize() <= t.payloadSize() {
				return nil, 0, false, false, t.storeNode(n)
			}
			sep, rightID, err := t.splitLeaf(n, len(n.keys)/2)
			return sep, rightID, true, false, err
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = append([]byte(nil), key...)
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = append([]byte(nil), val...)
		if n.encodedSize() <= t.payloadSize() {
			return nil, 0, false, true, t.storeNode(n)
		}
		sep, rightID, err := t.splitLeaf(n, t.runEnd(n, i))
		return sep, rightID, true, true, err
	}
	child := n.childFor(key)
	sep, newChild, grew, added, err := t.insert(child, key, val)
	if err != nil || !grew {
		return nil, 0, false, added, err
	}
	// Insert separator and right child into this internal node.
	i := 0
	for i < len(n.keys) && bytes.Compare(n.keys[i], sep) < 0 {
		i++
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = newChild
	if n.encodedSize() <= t.payloadSize() {
		return nil, 0, false, added, t.storeNode(n)
	}
	upSep, rightID, err := t.splitInternal(n)
	return upSep, rightID, true, added, err
}

// sharedPrefix returns how many leading bytes a and b have in common.
func sharedPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// runEnd chooses where to cut the overflowing leaf n whose new key sits at
// keys[i]. Keys that arrive in ascending order inside a group of keys with
// a long common prefix — a run; internal/core's (label, λmax, λmin, seq)
// with its growing seq makes nothing else — always land at the end of
// their run, so a cut at mid leaves behind a left half nothing will ever
// fill. When the page's first key belongs to the new key's run (they share
// at least half of the new key's bytes, and so does every key between) and
// the new key ends that run on this page (nothing follows it, or it shares
// more with the key before it than with the one after), the cut goes where
// the run ends: after the new key if the left page then has room for one
// more cell like its own, so the run goes on in the room the cells moved to
// the right leave; before it if not — always so when it is the page's last
// cell — so the left page stays full and the run goes on in the right one.
// Everything else — a run that covers less than half the page's cells, a
// key in the middle of its run, a new run between two others, random keys —
// is cut at mid. splitLeaf sees to it that both halves fit; DESIGN.md "Leaf
// splits" has the measurements.
func (t *Tree) runEnd(n *node, i int) int {
	mid, key := len(n.keys)/2, n.keys[i]
	if i == 0 || i+1 < mid || 2*sharedPrefix(n.keys[0], key) < len(key) {
		return mid
	}
	shared := sharedPrefix(n.keys[i-1], key)
	if i+1 < len(n.keys) && shared <= sharedPrefix(key, n.keys[i+1]) {
		return mid
	}
	if _, left := leafBytes(n.keys[:i+1], n.vals[:i+1], math.MaxInt); left+leafCellSize(shared, key, n.vals[i]) > t.payloadSize() {
		return i
	}
	return i + 1
}

// splitLeaf moves n's cells from cut on into a new right sibling and
// returns the separator (the right sibling's first key). Cells are of any
// size up to a quarter page, so a cut chosen by counting cells can put the
// largest of them all in one half, which then does not fit its page: the
// cut goes where the left page is fullest instead, which always works
// (DESIGN.md "Leaf splits").
func (t *Tree) splitLeaf(n *node, cut int) ([]byte, uint32, error) {
	if l, _ := leafBytes(n.keys[:cut], n.vals[:cut], t.payloadSize()); l < cut {
		cut = l
	} else if r, _ := leafBytes(n.keys[cut:], n.vals[cut:], t.payloadSize()); cut+r < len(n.keys) {
		cut, _ = leafBytes(n.keys, n.vals, t.payloadSize())
	}
	pg, err := t.p.alloc()
	if err != nil {
		return nil, 0, err
	}
	right := &node{
		id:   pg.id,
		leaf: true,
		next: n.next,
		keys: append([][]byte(nil), n.keys[cut:]...),
		vals: append([][]byte(nil), n.vals[cut:]...),
	}
	n.keys = n.keys[:cut]
	n.vals = n.vals[:cut]
	n.next = right.id
	right.encode(pg.payload())
	t.p.markDirty(pg)
	if err := t.storeNode(n); err != nil {
		return nil, 0, err
	}
	return right.keys[0], right.id, nil
}

// splitInternal splits an over-full internal node, promoting the median
// key.
func (t *Tree) splitInternal(n *node) ([]byte, uint32, error) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	pg, err := t.p.alloc()
	if err != nil {
		return nil, 0, err
	}
	right := &node{
		id:       pg.id,
		next:     n.children[mid], // leftmost child of the right node
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]uint32(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid]
	right.encode(pg.payload())
	t.p.markDirty(pg)
	if err := t.storeNode(n); err != nil {
		return nil, 0, err
	}
	return sep, right.id, nil
}

// Delete removes the entry for key, reporting whether it existed. Leaves
// are allowed to underflow (no rebalancing); space is reclaimed only by
// rebuilding, which matches the build-once workload of the FIX index.
func (t *Tree) Delete(key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, at, err := t.editLeaf(key)
	if err != nil || !at.found {
		return false, err
	}
	// As in Put, the page comes out as node.encode would write it.
	leaf.removeAt(at)
	t.edited(leaf, leaf.n-1)
	t.count--
	return true, nil
}

// Scan calls fn for every entry with from <= key < to in key order. A nil
// to scans to the end; a nil from starts at the beginning. fn returning
// false stops the scan. The tree lock is held for the whole scan, so fn
// must not call back into the Tree.
//
// val is read in place from the page cache and key is rebuilt in a buffer
// the scan reuses for the next entry (a leaf stores a key without the bytes
// it shares with the one before it): both are valid only during the call —
// fn copies what it keeps — and must not be modified.
func (t *Tree) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return scanLeaves(t, t.root, t.height, t.p.npages, from, to, fn)
}

// ClearCache flushes dirty pages and drops the page cache, so a following
// operation measures cold I/O.
func (t *Tree) ClearCache() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flush(); err != nil {
		return err
	}
	t.p.cache = make(map[uint32]*page, t.p.cap)
	t.p.lru.Init()
	return nil
}

// PageSize returns the tree's page size in bytes.
func (t *Tree) PageSize() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p.pageSize
}

// DirtyPage is a checksummed copy of one modified page, ready to be
// journaled before an atomic commit.
type DirtyPage struct {
	ID   uint32
	Data []byte
}

// DirtyPages stamps the meta page and returns checksummed copies of every
// dirty page in id order, without writing anything. A following Flush
// writes byte-identical pages in place, so a journal built from this
// snapshot replays to exactly the committed state.
func (t *Tree) DirtyPages() ([]DirtyPage, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	ids := t.p.dirtyIDs()
	out := make([]DirtyPage, 0, len(ids))
	for _, id := range ids {
		buf := append([]byte(nil), t.p.cache[id].buf...)
		stampPage(buf)
		out = append(out, DirtyPage{ID: id, Data: buf})
	}
	return out, nil
}

// Verify checks everything a probe relies on in one top-down walk from
// the root: every page it reads passes its checksum and decodes, only the
// last level holds leaves, each node's keys ascend strictly and lie inside
// the bounds its ancestors' separators give it (so keys ascend through the
// whole tree), the walk meets the leaves in the order the leaf chain links
// them, the chain ends with the last one, and the leaves hold the number
// of entries the meta page claims. A page reached twice is an error, so
// the walk ends within the file's pages whatever the pointers say. The
// allocated pages the walk did not reach are then checked for checksum,
// format version and node structure as well. It returns the first problem
// found, wrapping ErrCorrupt for validation failures.
func (t *Tree) Verify() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := verifyWalk{t: t, seen: make([]bool, t.p.npages)}
	if err := w.visit(t.root, 1, nil, nil); err != nil {
		return err
	}
	if w.chain != 0 {
		return fmt.Errorf("%w: leaf chain continues to page %d past the tree's last leaf", ErrCorrupt, w.chain)
	}
	if w.count != t.count {
		return fmt.Errorf("%w: leaves hold %d entries, meta page claims %d", ErrCorrupt, w.count, t.count)
	}
	for id := uint32(1); id < t.p.npages; id++ {
		if w.seen[id] {
			continue
		}
		if _, err := t.loadNode(id); err != nil {
			return err
		}
	}
	return nil
}

// verifyWalk is the state of Verify's top-down walk.
type verifyWalk struct {
	t      *Tree
	seen   []bool // by page id
	leaves int
	chain  uint32 // the page the last leaf met links to
	count  uint64
}

// visit checks the subtree under page id, whose keys must lie in
// [lo, hi); a nil bound is open.
func (w *verifyWalk) visit(id, depth uint32, lo, hi []byte) error {
	if id == 0 || id >= uint32(len(w.seen)) || w.seen[id] {
		return fmt.Errorf("%w: page %d (of %d) is referenced but does not exist or was already reached", ErrCorrupt, id, len(w.seen))
	}
	w.seen[id] = true
	n, err := w.t.loadNode(id)
	if err != nil {
		return err
	}
	if n.leaf != (depth == w.t.height) {
		return fmt.Errorf("%w: page %d on level %d of %d: leaf=%t", ErrCorrupt, id, depth, w.t.height, n.leaf)
	}
	for i, k := range n.keys {
		if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) ||
			(i > 0 && bytes.Compare(k, n.keys[i-1]) <= 0) {
			return fmt.Errorf("%w: page %d key %d is out of order or outside the bounds its ancestors route to it", ErrCorrupt, id, i)
		}
	}
	if n.leaf {
		if w.leaves > 0 && w.chain != id {
			return fmt.Errorf("%w: leaf %d follows a leaf that links to page %d", ErrCorrupt, id, w.chain)
		}
		w.leaves++
		w.chain = n.next
		w.count += uint64(len(n.keys))
		return nil
	}
	child := n.next
	for i, k := range n.keys {
		if err := w.visit(child, depth+1, lo, k); err != nil {
			return err
		}
		child, lo = n.children[i], k
	}
	return w.visit(child, depth+1, lo, hi)
}

package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/fix-index/fix/internal/storage"
)

const (
	magic = "FIXBT003" // 003: prefix-compressed leaf cells (002: checksummed page headers)
	// DefaultPageSize is the page size used unless overridden.
	DefaultPageSize = 4096
	// maxPageSize is the largest page Open accepts: no length on a page is
	// larger.
	maxPageSize = 1 << 24
)

// Tree is a B+tree with byte-string keys and values, resident in memory
// and persisted to a file by Flush. Keys are unique; Put overwrites. Keys
// and values must individually fit in a quarter page so that splits always
// succeed.
//
// Every exported operation takes an internal mutex, so a Tree is safe for
// concurrent use: it is the writer's handle, and its reads see the
// writer's uncommitted pages. Scan holds the lock for the whole pass, so
// scan callbacks must not call back into the same Tree. For mutex-free
// concurrent reads, FreezeView hands out an immutable View that many
// goroutines can Get/Scan without any lock.
type Tree struct {
	mu       sync.Mutex
	f        storage.File // guarded by mu (read by Open and ScrubDisk, written by Flush)
	pageSize int          // immutable after Create/Open
	// pages is the page table: the whole image, one buffer of pageSize
	// bytes per page id, page 0 the meta page. Every View starts as a copy
	// of the slice and shares the buffers; own keeps the writer off them.
	pages  [][]byte // guarded by mu
	owned  idSet    // guarded by mu (pages copied or allocated since the last FreezeView: no View shares their buffers)
	dirty  idSet    // guarded by mu (pages that differ from the file: what Flush writes)
	stats  Stats    // guarded by mu
	root   uint32   // guarded by mu
	height uint32   // guarded by mu
	count  uint64   // guarded by mu
	// lastBufs are the key buffers of EditLast's walk: the walk's own, and
	// the key of the entry in range it read last.
	lastBufs [2][]byte // guarded by mu
	// viewHits counts the page accesses of every View frozen from the
	// tree. Views are read without any lock, so it is atomic, and the
	// views share it, so the tree's Stats stay cumulative across them.
	viewHits atomic.Int64
}

// Create initializes an empty tree that Flush will write to f. (The third
// parameter was a cache size; bench/fixload/ledger.go still passes one, and
// the ROADMAP's "Stop passing the dead arguments" drops it.)
func Create(f storage.File, pageSize, _ int) (*Tree, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 256 {
		return nil, fmt.Errorf("btree: page size %d too small", pageSize)
	}
	t := &Tree{f: f, pageSize: pageSize, height: 1}
	t.alloc() // page 0 is the meta page
	t.root = t.alloc()
	(&node{id: t.root, leaf: true}).encode(t.own(t.root))
	t.writeMeta()
	return t, nil
}

// Open loads the tree that the last Flush wrote to f: every page is read
// and verified once, into the page table, and the file is not read again.
// Corruption — a bad magic, an implausible page size, a file shorter than
// its meta page says, a page whose checksum does not match — is reported
// as ErrCorrupt so callers can degrade gracefully instead of mis-reading
// the tree.
func Open(f storage.File) (*Tree, error) {
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
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	t := &Tree{f: f, pageSize: pageSize}
	npages := uint32(1)
	for id := uint32(0); id < npages; id++ {
		if end := (int64(id) + 1) * int64(pageSize); size < end {
			return nil, fmt.Errorf("%w: the file ends after %d bytes, inside page %d of %d", ErrCorrupt, size, id, npages)
		}
		buf := make([]byte, pageSize)
		if _, err := f.ReadAt(buf, int64(id)*int64(pageSize)); err != nil {
			return nil, fmt.Errorf("btree: reading page %d: %w", id, err)
		}
		if err := verifyPage(id, buf); err != nil {
			return nil, err
		}
		t.pages = append(t.pages, buf)
		t.stats.PageReads++
		if id > 0 {
			continue
		}
		meta := buf[pageHeaderSize:]
		t.root = binary.BigEndian.Uint32(meta[12:16])
		npages = binary.BigEndian.Uint32(meta[16:20])
		t.count = binary.BigEndian.Uint64(meta[20:28])
		t.height = binary.BigEndian.Uint32(meta[28:32])
		if npages < 2 || t.root == 0 || t.root >= npages || t.height == 0 {
			return nil, fmt.Errorf("%w: meta page: npages=%d root=%d height=%d", ErrCorrupt, npages, t.root, t.height)
		}
	}
	return t, nil
}

// Close closes the tree's file. Nothing is flushed: what was not committed
// is the caller's to replay. Views frozen from the tree stay readable.
func (t *Tree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.f.Close()
}

func (t *Tree) writeMeta() {
	meta := t.own(0)
	copy(meta[:8], magic)
	binary.BigEndian.PutUint32(meta[8:12], uint32(t.pageSize))
	binary.BigEndian.PutUint32(meta[12:16], t.root)
	binary.BigEndian.PutUint32(meta[16:20], uint32(len(t.pages)))
	binary.BigEndian.PutUint64(meta[20:28], t.count)
	binary.BigEndian.PutUint32(meta[28:32], t.height)
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
	return int64(len(t.pages)) * int64(t.pageSize)
}

// Stats returns a snapshot of the page counters: the tree's, merged with
// the accesses of every View frozen from it, so a caller differencing
// Stats around a query sees the same deltas whether the query ran against
// the live tree or a frozen view.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	s := t.stats
	t.mu.Unlock()
	s.CacheHits += t.viewHits.Load()
	return s
}

// ResetStats zeroes the tree's and the views' counters.
func (t *Tree) ResetStats() {
	t.mu.Lock()
	t.stats = Stats{}
	t.mu.Unlock()
	t.viewHits.Store(0)
}

// payloadSize is the space available to a node on one page.
func (t *Tree) payloadSize() int { return t.pageSize - pageHeaderSize }

func (t *Tree) maxEntry() int { return t.payloadSize() / 4 }

// MaxValue returns the largest value Put and Load accept under a key of
// keyLen bytes.
func (t *Tree) MaxValue(keyLen int) int { return t.maxEntry() - 8 - keyLen }

// checkEntry is the one size test for everything that writes an entry:
// entries stay within a quarter page, so a split always leaves room.
func (t *Tree) checkEntry(key, val []byte) error {
	if n := len(key) + len(val) + 8; n > t.maxEntry() {
		return fmt.Errorf("btree: entry of %d bytes (key %d, value %d, 8 of overhead) exceeds max %d", n, len(key), len(val), t.maxEntry())
	}
	return nil
}

func (t *Tree) loadNode(id uint32) (*node, error) {
	c, err := t.cells(id)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, c.buf)
}

func (t *Tree) storeNode(n *node) { n.encode(t.own(n.id)) }

// cells opens page id of the table for reading. To write the page, give
// the result the buffer own returns.
func (t *Tree) cells(id uint32) (cells, error) {
	t.stats.CacheHits++
	return openPage(t.pages, id)
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return get(t, t.root, t.height, key)
}

// editLeaf descends to the leaf whose key range holds key and locates key
// on it for an edit in place. The leaf is open for reading: Put and Delete
// move it to the buffer own returns — byte for byte the same, so at holds
// there too — before they write.
func (t *Tree) editLeaf(key []byte) (leaf cells, at slot, err error) {
	if leaf, err = findLeaf(t, t.root, t.height, key); err == nil {
		at, err = leaf.locate(key)
	}
	return leaf, at, err
}

// Put inserts or overwrites the entry for key. An entry whose cell fits on
// its leaf is written into the page where it lies: a new key's cell
// (cells.insertAt) re-encodes the cell after it against itself, the cells
// behind move up and the count grows by one; an overwrite's
// (cells.overwriteAt) replaces the old cell, and the cells behind move up or
// down by the difference. Either leaves the page byte for byte what decoding
// it, editing and node.encode produce — every page is zero past its last
// cell. A leaf with no room goes through insert, which splits it.
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
	return t.put(leaf, at, key, val)
}

// put writes the entry of key and val into leaf, on which locate found at,
// as Put describes.
func (t *Tree) put(leaf cells, at slot, key, val []byte) error {
	// A leaf without the room is split below, so the copy is not wasted.
	leaf.buf = t.own(leaf.id)
	if at.found && leaf.overwriteAt(at, key, val) {
		return nil
	}
	if !at.found && leaf.insertAt(at, key, val) {
		leaf.setCount(leaf.n + 1)
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
		newRoot := &node{
			id:       t.alloc(),
			next:     t.root, // leftmost child
			keys:     [][]byte{sepKey},
			children: []uint32{newChild},
		}
		t.storeNode(newRoot)
		t.root = newRoot.id
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
			// which case the leaf splits beside it.
			n.vals[i] = append([]byte(nil), val...)
			if n.encodedSize() <= t.payloadSize() {
				t.storeNode(n)
				return nil, 0, false, false, nil
			}
			sep, rightID := t.splitLeaf(n, grownEnd(n, i))
			return sep, rightID, true, false, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = append([]byte(nil), key...)
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = append([]byte(nil), val...)
		if n.encodedSize() <= t.payloadSize() {
			t.storeNode(n)
			return nil, 0, false, true, nil
		}
		sep, rightID := t.splitLeaf(n, t.runEnd(n, i))
		return sep, rightID, true, true, nil
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
		t.storeNode(n)
		return nil, 0, false, added, nil
	}
	upSep, rightID := t.splitInternal(n)
	return upSep, rightID, true, added, nil
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
// a long common prefix — a run; internal/core's chunks of one (label, σ),
// keyed by their first pointer, which appends make ascend — always land at
// the end of their run, so a cut at mid leaves behind a left half nothing
// will ever fill. When the page's first key belongs to the new key's run
// (they share at least half of the new key's bytes, and so does every key
// between) and the new key ends that run on this page (nothing follows it,
// or it shares more with the key before it than with the one after), the
// cut goes where
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

// grownEnd chooses where to cut the overflowing leaf n whose cell i an
// overwrite grew. The cell that grew is the one likely to grow again — in
// internal/core the last chunk of a run, which every append to the run
// rewrites — so the cut goes beside it, on the side that leaves the other
// page as full as the leaf was: before it when it lies in the second half,
// after it when it lies in the first. (At mid the half without the cell
// keeps half a page of room nothing may ever fill; DESIGN.md "Leaf splits"
// has the measurements.) splitLeaf sees to it that both halves fit.
func grownEnd(n *node, i int) int {
	if i >= len(n.keys)/2 {
		return max(i, 1)
	}
	return min(i+1, len(n.keys)-1)
}

// splitLeaf moves n's cells from cut on into a new right sibling and
// returns the separator (the right sibling's first key). Cells are of any
// size up to a quarter page, so a cut chosen by counting cells can put the
// largest of them all in one half, which then does not fit its page: the
// cut goes where the left page is fullest instead, which always works
// (DESIGN.md "Leaf splits").
func (t *Tree) splitLeaf(n *node, cut int) ([]byte, uint32) {
	if l, _ := leafBytes(n.keys[:cut], n.vals[:cut], t.payloadSize()); l < cut {
		cut = l
	} else if r, _ := leafBytes(n.keys[cut:], n.vals[cut:], t.payloadSize()); cut+r < len(n.keys) {
		cut, _ = leafBytes(n.keys, n.vals, t.payloadSize())
	}
	right := &node{
		id:   t.alloc(),
		leaf: true,
		next: n.next,
		keys: append([][]byte(nil), n.keys[cut:]...),
		vals: append([][]byte(nil), n.vals[cut:]...),
	}
	n.keys = n.keys[:cut]
	n.vals = n.vals[:cut]
	n.next = right.id
	t.storeNode(right)
	t.storeNode(n)
	return right.keys[0], right.id
}

// splitInternal splits an over-full internal node, promoting the median
// key.
func (t *Tree) splitInternal(n *node) ([]byte, uint32) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		id:       t.alloc(),
		next:     n.children[mid], // leftmost child of the right node
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]uint32(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid]
	t.storeNode(right)
	t.storeNode(n)
	return sep, right.id
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
	leaf.buf = t.own(leaf.id)
	leaf.removeAt(at)
	leaf.setCount(leaf.n - 1)
	t.count--
	return true, nil
}

// EditLast hands edit the greatest entry with from <= key < to — a nil to
// is open — and reports whether the range holds one; edit is not called
// when it does not. It is one descent, as Put's: to the leaf that holds the
// entry, where edit reads the key and the value as they lie, valid only
// for the length of the call and not to be modified. A value edit returns
// replaces the entry's, written as Put(key, value) writes it; a nil one
// leaves the tree as it is, and so does an error, which EditLast returns.
// The tree lock is held throughout, so edit must not call back into the
// Tree.
func (t *Tree) EditLast(from, to []byte, edit func(key, val []byte) ([]byte, error)) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, key, ok, err := last(t, t.root, 1, t.height, from, to, &t.lastBufs)
	if err != nil || !ok {
		return false, err
	}
	leaf, err := t.cells(id)
	if err != nil {
		return true, err
	}
	at, err := leaf.locate(key)
	if err != nil {
		return true, err
	}
	if !at.found {
		return true, fmt.Errorf("%w: page %d lost the key %x a walk of it just read", ErrCorrupt, id, key)
	}
	val, err := edit(key, leaf.valueAt(at))
	if err != nil || val == nil {
		return true, err
	}
	if err := t.checkEntry(key, val); err != nil {
		return true, err
	}
	return true, t.put(leaf, at, key, val)
}

// Scan calls fn for every entry with from <= key < to in key order. A nil
// to scans to the end; a nil from starts at the beginning. fn returning
// false stops the scan. The tree lock is held for the whole scan, so fn
// must not call back into the Tree.
//
// val is read in place from the page table and key is rebuilt in a buffer
// the scan reuses for the next entry (a leaf stores a key without the bytes
// it shares with the one before it): both are valid only during the call —
// fn copies what it keeps — and must not be modified.
func (t *Tree) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return scanLeaves(t, t.root, t.height, uint32(len(t.pages)), from, to, fn)
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
	w := verifyWalk{t: t, seen: make([]bool, len(t.pages))}
	if err := w.visit(t.root, 1, nil, nil); err != nil {
		return err
	}
	if w.chain != 0 {
		return fmt.Errorf("%w: leaf chain continues to page %d past the tree's last leaf", ErrCorrupt, w.chain)
	}
	if w.count != t.count {
		return fmt.Errorf("%w: leaves hold %d entries, meta page claims %d", ErrCorrupt, w.count, t.count)
	}
	for id := uint32(1); id < uint32(len(t.pages)); id++ {
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

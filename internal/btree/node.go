package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// On-page node layout. All fixed-width integers big-endian.
//
//	offset 0     type: 1 = leaf, 2 = internal
//	offset 1..2  number of keys
//	offset 3..6  leaf: next-leaf page id (0 = none)
//	             internal: leftmost child page id
//	offset 7..15 reserved
//	offset 16..  cells
//
// Leaf cell:     shared uvarint, unshared uvarint, valLen uvarint,
//                key[shared:], value bytes
// Internal cell: keyLen u16, key bytes, child page id u32
//
// A leaf cell stores its key without the bytes it has in common with the
// key of the cell before it on the same page: shared counts them — all of
// them, and 0 in a page's first cell, so a page is read without any other —
// and unshared the bytes that follow. Internal cells hold whole keys:
// descents compare against each, and they are one page in a hundred.
//
// An internal node with k keys has k+1 children: the leftmost child in the
// header plus one per cell; cell i's child holds keys >= cell i's key.

const (
	nodeHeaderSize = 16
	typeLeaf       = 1
	typeInternal   = 2
)

// node is the decoded in-memory form of a page.
type node struct {
	id       uint32
	leaf     bool
	next     uint32 // leaf: next-leaf page; internal: leftmost child
	keys     [][]byte
	vals     [][]byte // leaf only
	children []uint32 // internal only, parallel to keys (child right of keys[i])
}

// cells reads one page payload where it lies: the header parse (openCells)
// and the cell walk (pass, cell) are the only readers that know the layout
// above. Values and internal keys come back as sub-slices of the page with
// their capacity capped at their length, so an append by whoever receives
// one reallocates and can never write into the page — which consecutive
// Views and the tree's table share. A leaf key exists on the page in
// pieces only: cell rebuilds it in key, which the walk owns and the next
// cell overwrites. A cells of a View reads the same bytes forever; one of
// the Tree reads its page until the writer next changes it.
type cells struct {
	id   uint32
	buf  []byte
	leaf bool
	next uint32 // leaf: next-leaf page; internal: leftmost child
	n    int    // cells on the page
	i    int    // cells delivered so far
	pos  int    // offset of cell i
	// Of the leaf cell read last: the bytes its key takes from the key
	// before it, the key's length, the offset of the klen-shared key bytes
	// on the page (the value follows, up to pos) — and, to unread it, the
	// offset of the cell and the length of the key before it.
	shared, klen, body, start, klenBefore int
	key                                   []byte // the leaf key cell delivered last; capacity is reused
}

// openCells parses the header of page id.
func openCells(id uint32, buf []byte) (cells, error) {
	if len(buf) < nodeHeaderSize {
		return cells{}, fmt.Errorf("%w: page %d too small", ErrCorrupt, id)
	}
	if buf[0] != typeLeaf && buf[0] != typeInternal {
		return cells{}, fmt.Errorf("%w: page %d has unknown type %d", ErrCorrupt, id, buf[0])
	}
	return cells{
		id:   id,
		buf:  buf,
		leaf: buf[0] == typeLeaf,
		next: binary.BigEndian.Uint32(buf[3:7]),
		n:    int(binary.BigEndian.Uint16(buf[1:3])),
		pos:  nodeHeaderSize,
	}, nil
}

// more reports whether cell has cells left to deliver.
func (c *cells) more() bool { return c.i < c.n }

// uvarintLen returns the bytes the varint of v takes.
func uvarintLen(v int) int { return (bits.Len(uint(v)|1) + 6) / 7 }

// leafHead is the three lengths a leaf cell begins with.
type leafHead struct{ shared, unshared, vlen int }

// readLeafHead reads the head of the leaf cell at buf[pos:] and returns the
// offset of the cell's unshared key bytes — negative when a varint runs off
// buf or is a length no page can hold, or the cell does not lie inside buf.
func readLeafHead(buf []byte, pos int) (h leafHead, next int) {
	for _, length := range []*int{&h.shared, &h.unshared, &h.vlen} {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 || v > maxPageSize {
			return h, -1
		}
		*length, pos = int(v), pos+n
	}
	if pos+h.unshared+h.vlen > len(buf) {
		return h, -1
	}
	return h, pos
}

// size returns the bytes the head takes as put writes it.
func (h leafHead) size() int {
	return uvarintLen(h.shared) + uvarintLen(h.unshared) + uvarintLen(h.vlen)
}

// put writes the head at buf[pos:] and returns the offset past it.
func (h leafHead) put(buf []byte, pos int) int {
	for _, length := range []int{h.shared, h.unshared, h.vlen} {
		pos += binary.PutUvarint(buf[pos:], uint64(length))
	}
	return pos
}

// leafCellSize returns the bytes the cell of key takes when its first
// shared bytes are those of the key in the cell before it.
func leafCellSize(shared int, key, val []byte) int {
	return leafHead{shared, len(key) - shared, len(val)}.size() + len(key) - shared + len(val)
}

// putLeafCell writes that cell at buf[pos:] and returns the offset past it.
func putLeafCell(buf []byte, pos, shared int, key, val []byte) int {
	pos = leafHead{shared, len(key) - shared, len(val)}.put(buf, pos)
	pos += copy(buf[pos:], key[shared:])
	return pos + copy(buf[pos:], val)
}

// pass reads leaf cells as they lie on the page, without rebuilding their
// keys, up to and including the first that takes at most m bytes from the
// key before it, and reports whether it read such a cell or the cells ran
// out. A cell that does not lie inside the page, takes more bytes from the
// key before it than that key has, or makes a key longer than any entry is
// not read, now or later: ok is false, and headErr says which it was. Every
// search and every edit walks its leaf in this loop: its state is in locals.
func (c *cells) pass(m int) (read, ok bool) {
	buf, pos, klen, i, maxKey := c.buf, c.pos, c.klen, c.i, len(c.buf)/4
	for ok = true; i < c.n; {
		var shared, unshared, end int
		body := pos + 3
		if body <= len(buf) && buf[pos]|buf[pos+1]|buf[pos+2] < 0x80 {
			// Lengths below 128: all three, in nearly every cell.
			shared, unshared, end = int(buf[pos]), int(buf[pos+1]), body+int(buf[pos+1])+int(buf[pos+2])
		} else {
			var h leafHead
			h, body = readLeafHead(buf, pos)
			shared, unshared, end = h.shared, h.unshared, body+h.unshared+h.vlen
		}
		if ok = body >= 0 && end <= len(buf) && shared <= klen && shared+unshared <= maxKey; !ok {
			break
		}
		if read = shared <= m; read {
			c.shared, c.body, c.start, c.klenBefore = shared, body, pos, klen
		}
		if pos, klen, i = end, shared+unshared, i+1; read {
			break
		}
	}
	c.pos, c.klen, c.i = pos, klen, i
	return read, ok
}

// head reads the next leaf cell, as pass does, and reports whether it could.
func (c *cells) head() bool {
	_, ok := c.pass(math.MaxInt)
	return ok
}

// unread makes the cell read last the next one again.
func (c *cells) unread() { c.pos, c.klen, c.i = c.start, c.klenBefore, c.i-1 }

// headErr is the ErrCorrupt of the cell head could not read.
func (c *cells) headErr() error {
	h, pos := readLeafHead(c.buf, c.pos)
	switch {
	case pos < 0:
		return c.overrun()
	case h.shared > c.klen:
		return fmt.Errorf("%w: page %d cell %d shares %d bytes with a key of %d", ErrCorrupt, c.id, c.i, h.shared, c.klen)
	default:
		return fmt.Errorf("%w: page %d cell %d has a key of %d bytes, more than an entry may take", ErrCorrupt, c.id, c.i, h.shared+h.unshared)
	}
}

// suffix returns the key bytes of the cell read last, less the first shared.
func (c *cells) suffix() []byte { return c.buf[c.body : c.body+c.klen-c.shared] }

// val returns the value of the cell read last.
func (c *cells) val() []byte { return c.buf[c.body+c.klen-c.shared : c.pos : c.pos] }

// cell delivers the next cell: its key and, on a leaf, its value, on an
// internal page the child right of the key. A leaf key is valid until the
// next call. A leaf cell that stores a byte the key before it has too is
// ErrCorrupt like the cells pass refuses: seek takes shared for all the
// bytes two neighbours have in common.
func (c *cells) cell() (key, val []byte, child uint32, err error) {
	if c.leaf {
		if !c.head() {
			return nil, nil, 0, c.headErr()
		}
		suffix := c.suffix()
		if s := c.shared; s < len(c.key) && len(suffix) > 0 && suffix[0] == c.key[s] {
			c.unread() // so that the next call fails too
			return nil, nil, 0, fmt.Errorf("%w: page %d cell %d stores byte %d of its key, which the key before it has too", ErrCorrupt, c.id, c.i, s)
		}
		c.key = append(c.key[:c.shared], suffix...)
		return c.key[:c.klen:c.klen], c.val(), 0, nil
	}
	buf, pos := c.buf, c.pos
	if pos+2 > len(buf) {
		return nil, nil, 0, c.overrun()
	}
	kl := int(binary.BigEndian.Uint16(buf[pos:]))
	pos += 2
	if pos+kl+4 > len(buf) {
		return nil, nil, 0, c.overrun()
	}
	key = buf[pos : pos+kl : pos+kl]
	pos += kl
	child = binary.BigEndian.Uint32(buf[pos:])
	c.pos, c.i = pos+4, c.i+1
	return key, nil, child, nil
}

func (c *cells) overrun() error {
	return fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, c.id, c.i)
}

// slot is where a key sits on a leaf, or would: off is the offset of its
// cell when the leaf holds the key (found; size is the cell's length) and
// of the first cell with a larger key — or end — when it does not. end is
// the first byte past the last cell. pred is the number of leading bytes
// the key shares with the key before off, succ with the one at off.
type slot struct {
	off, size, end int
	found          bool
	pred, succ     int
}

// seek walks a leaf up to the first cell whose key is not below target and
// leaves it unread: the next head or cell delivers it, and more reports
// whether there is one. It fills in off, found, pred and succ. No key it
// passes is rebuilt or compared whole: with m the bytes target shares with
// the last key passed (which is below it), a cell that shares more than m
// bytes with that key is below target too, one that shares fewer is above
// it — keys ascend — and only one that shares exactly m has its unshared
// bytes compared, with target[m:] (DESIGN.md "Page format"). A walk that
// goes on with cell sets key to target[:pred] first: the cell left unread
// shares no more, and of those.
func (c *cells) seek(target []byte) (slot, error) {
	for m := 0; ; {
		read, ok := c.pass(m)
		if !ok {
			return slot{}, c.headErr()
		}
		if !read {
			return slot{off: c.pos, pred: m}, nil
		}
		l := c.shared // the bytes target and this key have in common
		if l == m {
			suffix := c.suffix()
			r := sharedPrefix(suffix, target[m:])
			if l += r; l < len(target) && (r == len(suffix) || suffix[r] < target[l]) {
				m = l
				continue
			}
		}
		found := l == len(target) && l == c.klen
		c.unread()
		return slot{off: c.pos, found: found, pred: m, succ: l}, nil
	}
}

// locate walks every cell of a leaf for an edit in place. Nothing is
// written before the whole page has passed pass's tests.
func (c *cells) locate(key []byte) (slot, error) {
	s, err := c.seek(key)
	if err != nil {
		return slot{}, err
	}
	if s.found && c.head() { // seek has read it once
		s.size = c.pos - s.off
	}
	if _, ok := c.pass(-1); !ok {
		return slot{}, c.headErr()
	}
	s.end = c.pos
	return s, nil
}

// insertAt writes the cell of key, which the leaf does not hold, at the
// slot locate found for it, and reports whether the page had the room. The
// cell after it is re-encoded against the new key: lcp(new, succ) >=
// lcp(pred, succ), so it only loses bytes from the front of its unshared
// part. A page on which it would not (the tree wrote no such page) is left
// to the decoding path.
func (c *cells) insertAt(at slot, key, val []byte) bool {
	buf, off := c.buf, at.off
	add, drop := leafCellSize(at.pred, key, val), 0
	var succ leafHead
	if off < at.end {
		old, pos := readLeafHead(buf, off) // passed locate's tests
		gone := at.succ - old.shared       // unshared bytes the new key has too
		succ = leafHead{at.succ, old.unshared - gone, old.vlen}
		add, drop = add+succ.size(), pos-off+gone
		if gone < 0 || add <= drop {
			return false
		}
	}
	if at.end+add-drop > len(buf) {
		return false
	}
	copy(buf[off+add:], buf[off+drop:at.end])
	if pos := putLeafCell(buf, off, at.pred, key, val); off < at.end {
		succ.put(buf, pos)
	}
	return true
}

// overwriteAt replaces the value of the cell locate found with val and
// reports whether the page had the room. The cell keeps its key bytes and
// the cell after it is left as it is: it shares with the same key as
// before. The cells behind move by the difference, and the bytes a
// shrinking cell vacates are zeroed.
func (c *cells) overwriteAt(at slot, key, val []byte) bool {
	buf, off := c.buf, at.off
	size := leafCellSize(at.pred, key, val)
	end := at.end + size - at.size
	if end > len(buf) {
		return false
	}
	copy(buf[off+size:], buf[off+at.size:at.end])
	putLeafCell(buf, off, at.pred, key, val)
	if end < at.end {
		clear(buf[end:at.end])
	}
	return true
}

// removeAt takes the cell locate found out of the leaf. The cell after it
// is re-encoded against the one before: lcp(pred, succ) = min(lcp(pred,
// removed), lcp(removed, succ)), so a cell that shared more with the removed
// key than that key with its predecessor takes over the bytes between the
// two from the removed cell, and the page never grows. The bytes the cells
// behind vacate are zeroed.
func (c *cells) removeAt(at slot) {
	buf, off := c.buf, at.off
	pos, keep := off, off+at.size // cells from keep on move down to pos
	if keep < at.end {
		gone, from := readLeafHead(buf, off)
		succ, rest := readLeafHead(buf, keep)
		if took := succ.shared - gone.shared; took > 0 {
			succ = leafHead{gone.shared, succ.unshared + took, succ.vlen}
			pos = off + succ.size()
			pos += copy(buf[pos:], buf[from:from+took])
			succ.put(buf, off)
			keep = rest
		}
	}
	pos += copy(buf[pos:], buf[keep:at.end])
	clear(buf[pos:at.end])
}

// setCount records that an edit in place left the page with n cells.
func (c *cells) setCount(n int) { binary.BigEndian.PutUint16(c.buf[1:3], uint16(n)) }

// decodeNode is the cell walk plus the copies: the form a page takes when
// the tree must own it to change it (an overwrite, splits) or to check it
// whole (Verify).
func decodeNode(id uint32, buf []byte) (*node, error) {
	c, err := openCells(id, buf)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: c.leaf, next: c.next}
	for c.more() {
		key, val, child, err := c.cell()
		if err != nil {
			return nil, err
		}
		n.keys = append(n.keys, append([]byte(nil), key...))
		if n.leaf {
			n.vals = append(n.vals, append([]byte(nil), val...))
		} else {
			n.children = append(n.children, child)
		}
	}
	return n, nil
}

// pageSource hands the read paths their pages: a View's frozen image, or
// a Tree's table under the tree lock.
type pageSource interface {
	// cells opens page id for reading in place, as one node access.
	cells(id uint32) (cells, error)
}

// findLeaf descends from root to the leaf whose key range holds key,
// taking on every internal page the child right of the last key <= key
// (what childFor computes on a decoded node). A sound descent meets a
// leaf on level height at the latest; one that does not — internal pages
// naming each other as children — is ErrCorrupt instead of a loop.
func findLeaf(src pageSource, root, height uint32, key []byte) (cells, error) {
	id := root
	for level := uint32(1); ; level++ {
		c, err := src.cells(id)
		if err != nil || c.leaf {
			return c, err
		}
		if level >= height {
			return cells{}, fmt.Errorf("%w: page %d on level %d of a tree of height %d is not a leaf", ErrCorrupt, id, level, height)
		}
		id = c.next
		for c.more() {
			k, _, child, err := c.cell()
			if err != nil {
				return cells{}, err
			}
			if bytes.Compare(k, key) > 0 {
				break
			}
			id = child
		}
	}
}

// get returns a copy of the value stored under key; the caller may keep
// and change it.
func get(src pageSource, root, height uint32, key []byte) ([]byte, bool, error) {
	c, err := findLeaf(src, root, height, key)
	if err != nil {
		return nil, false, err
	}
	if at, err := c.seek(key); err != nil || !at.found {
		return nil, false, err
	}
	if !c.head() {
		return nil, false, c.headErr()
	}
	return append([]byte(nil), c.val()...), true, nil
}

// last returns a copy of the greatest entry with from <= key < to in the
// subtree under page id, on level level of height. In a leaf that is the
// last cell in range, which a seek to from and a walk up to to find. In an
// internal page it is the descent to the greatest key below to: the child
// right of the last separator below to, and — leaves may have lost every
// cell to deletes — when that subtree holds nothing in range, the children
// left of it in turn, until one does or the separator left of a child is at
// most from.
func last(src pageSource, id, level, height uint32, from, to []byte) (key, val []byte, ok bool, err error) {
	c, err := src.cells(id)
	if err != nil {
		return nil, nil, false, err
	}
	if c.leaf {
		if len(from) > 0 {
			at, err := c.seek(from)
			if err != nil {
				return nil, nil, false, err
			}
			c.key = append(c.key, from[:at.pred]...)
		}
		for c.more() {
			k, v, _, err := c.cell()
			if err != nil {
				return nil, nil, false, err
			}
			if to != nil && bytes.Compare(k, to) >= 0 {
				break
			}
			key, val, ok = append(key[:0], k...), v, true
		}
		if ok {
			val = append([]byte(nil), val...)
		}
		return key, val, ok, nil
	}
	if level >= height {
		return nil, nil, false, fmt.Errorf("%w: page %d on level %d of a tree of height %d is not a leaf", ErrCorrupt, id, level, height)
	}
	// Child j is the leftmost child or the one right of separator j-1, and
	// holds the keys from that separator on.
	page, j, child, sep := c, 0, c.next, []byte(nil)
	for c.more() {
		k, _, right, err := c.cell()
		if err != nil {
			return nil, nil, false, err
		}
		if to != nil && bytes.Compare(k, to) >= 0 {
			break
		}
		j, child, sep = j+1, right, k
	}
	for {
		if key, val, ok, err = last(src, child, level+1, height, from, to); ok || err != nil {
			return key, val, ok, err
		}
		if j == 0 || bytes.Compare(sep, from) <= 0 {
			return nil, nil, false, nil
		}
		j--
		w := page
		child, sep = w.next, nil
		for range j {
			if sep, _, child, err = w.cell(); err != nil {
				return nil, nil, false, err
			}
		}
	}
}

// keyBufs recycles the buffers scans rebuild leaf keys in: what a callback
// receives escapes, so the buffer cannot live on the scan's stack.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// scanLeaves calls fn for every entry with from <= key < to in key order,
// until fn returns false: it seeks from in the leaf findLeaf positions on,
// then follows the leaf chain. The chain must hold leaves only and, as a
// sound one visits each leaf once, end within npages hops; a damaged file
// whose pages each pass their checksum can hold one that does neither. The
// value fn receives is a sub-slice of its page and the key is the walk's
// (see cells): both are fn's for the length of the call only.
func scanLeaves(src pageSource, root, height, npages uint32, from, to []byte, fn func(key, val []byte) bool) error {
	c, err := findLeaf(src, root, height, from)
	if err != nil {
		return err
	}
	kb := keyBufs.Get().(*[]byte)
	defer func() {
		*kb = c.key
		keyBufs.Put(kb)
	}()
	c.key = (*kb)[:0]
	below := len(from) > 0 // cells below from may still come
	for leaves := uint32(1); ; leaves++ {
		if below {
			at, err := c.seek(from)
			if err != nil {
				return err
			}
			c.key, below = append(c.key[:0], from[:at.pred]...), !c.more()
		}
		for c.more() {
			k, v, _, err := c.cell()
			if err != nil {
				return err
			}
			if to != nil && bytes.Compare(k, to) >= 0 {
				return nil
			}
			if !fn(k, v) {
				return nil
			}
		}
		if c.next == 0 {
			return nil
		}
		if leaves >= npages {
			return fmt.Errorf("%w: leaf chain does not end within %d pages (page %d links to %d)", ErrCorrupt, npages, c.id, c.next)
		}
		prev, key := c.id, c.key
		if c, err = src.cells(c.next); err != nil {
			return err
		}
		if !c.leaf {
			return fmt.Errorf("%w: leaf %d links to page %d, which is not a leaf", ErrCorrupt, prev, c.id)
		}
		c.key = key[:0]
	}
}

// leafBytes packs leaf cells of keys and vals, in order, into a page with
// limit payload bytes and returns how many of them fit and the bytes the
// page then holds.
func leafBytes(keys, vals [][]byte, limit int) (n, size int) {
	size = nodeHeaderSize
	for i, k := range keys {
		shared := 0
		if i > 0 {
			shared = sharedPrefix(keys[i-1], k)
		}
		cell := leafCellSize(shared, k, vals[i])
		if size+cell > limit {
			return i, size
		}
		size += cell
	}
	return len(keys), size
}

// encodedSize returns the number of bytes the node occupies on a page.
func (n *node) encodedSize() int {
	if n.leaf {
		_, size := leafBytes(n.keys, n.vals, math.MaxInt)
		return size
	}
	size := nodeHeaderSize
	for _, k := range n.keys {
		size += 2 + len(k) + 4
	}
	return size
}

// encode serializes the node into buf (a full page). It panics if the node
// does not fit; callers must split before encoding.
func (n *node) encode(buf []byte) {
	clear(buf)
	if n.leaf {
		buf[0] = typeLeaf
	} else {
		buf[0] = typeInternal
	}
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:7], n.next)
	pos := nodeHeaderSize
	for i, k := range n.keys {
		if n.leaf {
			shared := 0
			if i > 0 {
				shared = sharedPrefix(n.keys[i-1], k)
			}
			pos = putLeafCell(buf, pos, shared, k, n.vals[i])
			continue
		}
		binary.BigEndian.PutUint16(buf[pos:], uint16(len(k)))
		pos += 2 + copy(buf[pos+2:], k)
		binary.BigEndian.PutUint32(buf[pos:], n.children[i])
		pos += 4
	}
}

// searchLeaf returns the index of the first key >= target and whether an
// exact match exists.
func (n *node) searchLeaf(target []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(n.keys[lo], target)
}

// childFor returns the child page to descend into for target: the child
// right of the last key <= target, or the leftmost child.
func (n *node) childFor(target []byte) uint32 {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], target) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return n.next // leftmost child
	}
	return n.children[lo-1]
}

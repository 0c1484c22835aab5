package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// On-page node layout. All integers big-endian.
//
//	offset 0     type: 1 = leaf, 2 = internal
//	offset 1..2  number of keys
//	offset 3..6  leaf: next-leaf page id (0 = none)
//	             internal: leftmost child page id
//	offset 7..15 reserved
//	offset 16..  cells
//
// Leaf cell:     keyLen u16, valLen u16, key bytes, value bytes
// Internal cell: keyLen u16, key bytes, child page id u32
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
// and the cell walk (cell) are the only code that knows the layout above,
// and they copy nothing. Keys and values come back as sub-slices of the page
// with their capacity capped at their length, so an append by whoever
// receives one reallocates and can never write into the page — which
// consecutive Views share and the pager still owns. A cells over a pager
// page is valid until the next pager call; over a View's page, forever.
type cells struct {
	id   uint32
	buf  []byte
	leaf bool
	next uint32 // leaf: next-leaf page; internal: leftmost child
	n    int    // cells on the page
	i    int    // cells delivered so far
	pos  int    // offset of cell i
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

// cell delivers the next cell: its key and, on a leaf, its value, on an
// internal page the child right of the key. A cell that does not lie
// inside the page is ErrCorrupt, and so is every call after it.
func (c *cells) cell() (key, val []byte, child uint32, err error) {
	buf, pos := c.buf, c.pos
	if pos+2 > len(buf) {
		return nil, nil, 0, c.overrun()
	}
	kl := int(binary.BigEndian.Uint16(buf[pos:]))
	pos += 2
	if c.leaf {
		if pos+2 > len(buf) {
			return nil, nil, 0, c.overrun()
		}
		vl := int(binary.BigEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+kl+vl > len(buf) {
			return nil, nil, 0, c.overrun()
		}
		key = buf[pos : pos+kl : pos+kl]
		pos += kl
		val = buf[pos : pos+vl : pos+vl]
		pos += vl
	} else {
		if pos+kl+4 > len(buf) {
			return nil, nil, 0, c.overrun()
		}
		key = buf[pos : pos+kl : pos+kl]
		pos += kl
		child = binary.BigEndian.Uint32(buf[pos:])
		pos += 4
	}
	c.pos, c.i = pos, c.i+1
	return key, val, child, nil
}

func (c *cells) overrun() error {
	return fmt.Errorf("%w: page %d cell %d overruns page", ErrCorrupt, c.id, c.i)
}

// slot is where a key sits on a leaf, or would: off is the offset of its
// cell when the leaf holds the key (found; size is the cell's length) and
// of the first cell with a larger key — or end — when it does not. end is
// the first byte past the last cell.
type slot struct {
	off, size, end int
	found          bool
}

// locate walks every cell of a leaf for an edit in place. Nothing is
// written before the whole page has passed cell's bounds tests.
func (c *cells) locate(key []byte) (slot, error) {
	s := slot{off: -1}
	for c.more() {
		start := c.pos
		k, _, _, err := c.cell()
		if err != nil {
			return slot{}, err
		}
		if s.off >= 0 {
			continue
		}
		switch bytes.Compare(k, key) {
		case 0:
			s.off, s.size, s.found = start, c.pos-start, true
		case 1:
			s.off = start
		}
	}
	if s.end = c.pos; s.off < 0 {
		s.off = s.end
	}
	return s, nil
}

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
// a Tree's pager under the tree lock.
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
	for c.more() {
		k, v, _, err := c.cell()
		if err != nil {
			return nil, false, err
		}
		switch bytes.Compare(k, key) {
		case 0:
			return append([]byte(nil), v...), true, nil
		case 1:
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// scanLeaves calls fn for every entry with from <= key < to in key order,
// until fn returns false: it skips the cells below from in the leaf
// findLeaf positions on, then follows the leaf chain. The chain must hold
// leaves only and, as a sound one visits each leaf once, end within
// npages hops; a torn write-back can leave one behind that does neither.
// fn receives sub-slices of the pages (see cells).
func scanLeaves(src pageSource, root, height, npages uint32, from, to []byte, fn func(key, val []byte) bool) error {
	c, err := findLeaf(src, root, height, from)
	if err != nil {
		return err
	}
	below := len(from) > 0 // cells below from may still come
	for leaves := uint32(1); ; leaves++ {
		for c.more() {
			k, v, _, err := c.cell()
			if err != nil {
				return err
			}
			if below {
				if bytes.Compare(k, from) < 0 {
					continue
				}
				below = false
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
		prev := c.id
		if c, err = src.cells(c.next); err != nil {
			return err
		}
		if !c.leaf {
			return fmt.Errorf("%w: leaf %d links to page %d, which is not a leaf", ErrCorrupt, prev, c.id)
		}
	}
}

// encodedSize returns the number of bytes the node occupies on a page.
func (n *node) encodedSize() int {
	size := nodeHeaderSize
	for i, k := range n.keys {
		if n.leaf {
			size += 4 + len(k) + len(n.vals[i])
		} else {
			size += 2 + len(k) + 4
		}
	}
	return size
}

// encode serializes the node into buf (a full page). It panics if the node
// does not fit; callers must split before encoding.
func (n *node) encode(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = typeLeaf
	} else {
		buf[0] = typeInternal
	}
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:7], n.next)
	pos := nodeHeaderSize
	for i, k := range n.keys {
		binary.BigEndian.PutUint16(buf[pos:pos+2], uint16(len(k)))
		pos += 2
		if n.leaf {
			v := n.vals[i]
			binary.BigEndian.PutUint16(buf[pos:pos+2], uint16(len(v)))
			pos += 2
			copy(buf[pos:], k)
			pos += len(k)
			copy(buf[pos:], v)
			pos += len(v)
		} else {
			copy(buf[pos:], k)
			pos += len(k)
			binary.BigEndian.PutUint32(buf[pos:pos+4], n.children[i])
			pos += 4
		}
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

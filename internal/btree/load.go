package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// pageRef is one packed page as the level above sees it: the smallest
// key of its subtree, and its id.
type pageRef struct {
	first []byte
	id    uint32
}

// packing is the page a level is being written into: cells go straight
// into the page buffer, left to right, in the layout node.go documents — a
// leaf cell against the key written before it, the one that opens a page
// whole.
type packing struct {
	id   uint32
	buf  []byte // the page's payload, the writer's own
	leaf bool
	pos  int // next free payload byte
	n    int // cells written
}

// open starts a node of the given type on page id, whose payload buf is
// zero past the type byte (a fresh page, or the empty root leaf); next is
// the header's page field — an internal node's leftmost child, a leaf's
// successor once it is known.
func (pk *packing) open(id uint32, buf []byte, typ byte, next uint32) {
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[3:7], next)
	*pk = packing{id: id, buf: buf, leaf: typ == typeLeaf, pos: nodeHeaderSize}
}

// fits reports whether a cell of the given size still goes on the page
// (the cell count is a u16).
func (pk *packing) fits(cell int) bool {
	return pk.pos+cell <= len(pk.buf) && pk.n < math.MaxUint16
}

// cell appends one cell: on a leaf the key, less the first shared bytes it
// has in common with the key before it, and the value; on an internal node
// the whole key and the child id.
func (pk *packing) cell(shared int, key, val []byte, child uint32) {
	buf := pk.buf
	if pk.leaf {
		pk.pos = putLeafCell(buf, pk.pos, shared, key, val)
	} else {
		binary.BigEndian.PutUint16(buf[pk.pos:], uint16(len(key)))
		pk.pos += 2 + copy(buf[pk.pos+2:], key)
		binary.BigEndian.PutUint32(buf[pk.pos:], child)
		pk.pos += 4
	}
	pk.n++
}

// seal finishes the page: it writes the cell count.
func (pk *packing) seal() { binary.BigEndian.PutUint16(pk.buf[1:3], uint16(pk.n)) }

// Load fills an empty tree bottom-up from entries that arrive in strictly
// ascending key order: leaves are packed full, left to right — a page is
// closed when the next cell, less what its key shares with the last one,
// does not fit — and chained as they are allocated, then each interior
// level is packed the same way
// from the (first key, page id) pairs of the level below, so no page is
// ever decoded, split or rewritten. next returns one entry per call and
// io.EOF after the last; its slices are only read until the following
// call. Any other error from next, an entry Put would reject, a key not
// greater than its predecessor, or a tree that already holds entries ends
// the load with an error before that entry is written — the tree is then
// half built and only fit to be discarded. The pages are the table's like
// any other write's: nothing reaches the file before Flush. A later Put
// into a packed leaf splits it as any other full leaf (Tree.runEnd): at
// mid, or where the new key's run ends.
func (t *Tree) Load(next func() (key, val []byte, err error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count != 0 || t.height != 1 {
		return fmt.Errorf("btree: Load needs an empty tree (have %d entries, height %d)", t.count, t.height)
	}
	var pk packing
	pk.open(t.root, t.own(t.root), typeLeaf, 0)
	var level []pageRef
	var prev []byte
	count := uint64(0)
	for {
		key, val, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := t.checkEntry(key, val); err != nil {
			return err
		}
		if count > 0 && bytes.Compare(key, prev) <= 0 {
			return fmt.Errorf("btree: Load: key %x does not sort after its predecessor %x", key, prev)
		}
		shared := sharedPrefix(prev, key)
		if !pk.fits(leafCellSize(shared, key, val)) {
			id := t.alloc()
			binary.BigEndian.PutUint32(pk.buf[3:7], id)
			pk.seal()
			pk.open(id, t.own(id), typeLeaf, 0)
			shared = 0 // a page's first cell holds its key whole
		}
		if pk.n == 0 {
			level = append(level, pageRef{first: append([]byte(nil), key...), id: pk.id})
		}
		pk.cell(shared, key, val, 0)
		prev = append(prev[:0], key...)
		count++
	}
	pk.seal()
	height := uint32(1)
	for ; len(level) > 1; height++ {
		var up []pageRef
		for i, c := range level {
			if i > 0 && pk.fits(6+len(c.first)) {
				pk.cell(0, c.first, nil, c.id)
				continue
			}
			if i > 0 {
				pk.seal()
			}
			id := t.alloc()
			pk.open(id, t.own(id), typeInternal, c.id)
			up = append(up, pageRef{first: c.first, id: id})
		}
		pk.seal()
		level = up
	}
	if len(level) == 1 {
		t.root = level[0].id
	}
	t.height = height
	t.count = count
	return nil
}

package xmltree

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary subtree encoding.
//
// Every node is encoded as a varint tag followed by a varint length:
//
//	element: tag = labelID<<1        length = total bytes of the children
//	text:    tag = 1                 length = byte length of the value
//
// followed by either the children encodings or the UTF-8 value bytes.
// Because each node knows the byte length of its body, a consumer can
// decode the subtree starting at any node offset without touching its
// siblings, and can skip a whole subtree in O(1). This gives the
// navigational operators (NoK) first-child/next-sibling moves directly over
// stored bytes with no deserialization, and lets an index pointer address
// any element inside a large stored document.

// AppendBinary appends the binary encoding of the subtree rooted at n to
// dst, interning labels in dict, and returns the extended slice.
func AppendBinary(dst []byte, n *Node, dict *Dict) []byte {
	if n == nil {
		return dst
	}
	if n.IsText() {
		dst = binary.AppendUvarint(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(n.Value)))
		return append(dst, n.Value...)
	}
	id := dict.ID(n.Label)
	dst = binary.AppendUvarint(dst, uint64(id)<<1)
	// Encode children into a scratch region so the length prefix can be
	// written first. To avoid a second buffer we reserve a maximal varint,
	// encode, then shift if the varint turned out shorter.
	body := encodeChildren(nil, n, dict)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

func encodeChildren(dst []byte, n *Node, dict *Dict) []byte {
	for _, c := range n.Children {
		dst = AppendBinary(dst, c, dict)
	}
	return dst
}

// EncodeBinary encodes the subtree rooted at n.
func EncodeBinary(n *Node, dict *Dict) []byte {
	return AppendBinary(nil, n, dict)
}

// DecodeBinary reconstructs the node tree encoded at the start of buf.
// It returns the tree and the number of bytes consumed.
func DecodeBinary(buf []byte, dict *Dict) (*Node, int, error) {
	c := Cursor{Buf: buf, Dict: dict}
	n, end, err := c.decode(0)
	return n, int(end), err
}

// Ref is a byte offset of a node within an encoded buffer.
type Ref uint32

// Cursor navigates a binary-encoded subtree without decoding it. The zero
// offset is the root of the buffer. Cursors are cheap values; create them
// freely.
type Cursor struct {
	Buf  []byte
	Dict *Dict
}

// header parses the node header at r, returning the tag, the body length
// and the offset of the body. A header shortHeader decodes costs a few
// byte tests; any other one is decoded in full, with binary.Uvarint.
func (c Cursor) header(r Ref) (tag uint64, bodyLen uint64, body Ref, err error) {
	if t, b, end, ok := c.shortHeader(r); ok {
		return uint64(t), uint64(end - b), b, nil
	}
	tag, n1 := binary.Uvarint(c.Buf[r:])
	if n1 <= 0 {
		return 0, 0, 0, fmt.Errorf("xmltree: corrupt node tag at offset %d", r)
	}
	bodyLen, n2 := binary.Uvarint(c.Buf[int(r)+n1:])
	if n2 <= 0 {
		return 0, 0, 0, fmt.Errorf("xmltree: corrupt node length at offset %d", r)
	}
	body = r + Ref(n1) + Ref(n2)
	if int(body)+int(bodyLen) > len(c.Buf) {
		return 0, 0, 0, fmt.Errorf("xmltree: node body at offset %d overruns buffer", r)
	}
	return tag, bodyLen, body, nil
}

// shortHeader decodes the node header at r with direct byte tests when its
// tag is one or two varint bytes and its length one to three: every element
// whose label id is below 8192 and every body under 2 MiB, the document
// root of a large record included. It reports ok=false for any other
// header, for one cut off by the end of the buffer and for a body that
// overruns it, all of which header decodes in full; whatever it does
// decode, binary.Uvarint decodes to the same tag and length.
func (c Cursor) shortHeader(r Ref) (tag uint32, body, end Ref, ok bool) {
	b := c.Buf[r:]
	if len(b) < 2 {
		return 0, 0, 0, false
	}
	tag, i := uint32(b[0]), 1
	if tag >= 0x80 {
		if b[1] >= 0x80 || len(b) < 3 {
			return 0, 0, 0, false
		}
		tag, i = tag&0x7f|uint32(b[1])<<7, 2
	}
	n := uint32(b[i])
	i++
	if n >= 0x80 {
		if i >= len(b) {
			return 0, 0, 0, false
		}
		n = n&0x7f | uint32(b[i])<<7
		i++
		if n >= 1<<14 {
			if i >= len(b) || b[i] >= 0x80 {
				return 0, 0, 0, false
			}
			n = n&(1<<14-1) | uint32(b[i])<<14
			i++
		}
	}
	if i+int(n) > len(b) {
		return 0, 0, 0, false
	}
	body = r + Ref(i)
	return tag, body, body + Ref(n), true
}

// QuickSpan is Span for the commonest header, a one-byte tag and a
// one-byte length — an element whose label id is below 64 and whose body
// is under 128 bytes, or a text node under 128 bytes — and small enough
// for the compiler to inline into a matcher's inner loop. It reports
// ok=false for every other header, which the caller hands to Span.
func (c Cursor) QuickSpan(r Ref) (label uint32, isText bool, body, end Ref, ok bool) {
	b := c.Buf[r:]
	if len(b) < 2 || b[0]|b[1] >= 0x80 || int(b[1])+2 > len(b) {
		return 0, false, 0, 0, false
	}
	body = r + 2
	return uint32(b[0] >> 1), b[0] == 1, body, body + Ref(b[1]), true
}

// IsText reports whether the node at r is a text node.
func (c Cursor) IsText(r Ref) bool {
	tag, _, _, err := c.header(r)
	return err == nil && tag == 1
}

// LabelID returns the label identifier of the element at r, or 0 for a
// text node or corrupt data.
func (c Cursor) LabelID(r Ref) uint32 {
	tag, _, _, err := c.header(r)
	if err != nil || tag == 1 {
		return 0
	}
	return uint32(tag >> 1)
}

// Label returns the label string of the element at r.
func (c Cursor) Label(r Ref) string {
	return c.Dict.Label(c.LabelID(r))
}

// Text returns the character data of the text node at r (empty for
// elements).
func (c Cursor) Text(r Ref) string {
	tag, bodyLen, body, err := c.header(r)
	if err != nil || tag != 1 {
		return ""
	}
	return string(c.Buf[body : body+Ref(bodyLen)])
}

// Span decodes the node header at r once and returns everything a
// navigational matcher needs to step over or into the node: the element's
// label id (0 for a text node, which sets isText) and the byte range
// [body, end) of its body — the children encodings of an element, the
// value of a text node — where end is also the offset of the node's next
// sibling. Nothing is copied: a text node's value is c.Buf[body:end],
// aliasing the buffer. Corrupt data yields an empty, unlabeled element
// ending at the end of the buffer, so a walk over it terminates.
func (c Cursor) Span(r Ref) (label uint32, isText bool, body, end Ref) {
	if tag, body, end, ok := c.shortHeader(r); ok {
		return tag >> 1, tag == 1, body, end
	}
	tag, bodyLen, body, err := c.header(r)
	if err != nil {
		return 0, false, Ref(len(c.Buf)), Ref(len(c.Buf))
	}
	if tag == 1 {
		return 0, true, body, body + Ref(bodyLen)
	}
	return uint32(tag >> 1), false, body, body + Ref(bodyLen)
}

// SubtreeEnd returns the offset one past the end of the subtree at r.
func (c Cursor) SubtreeEnd(r Ref) Ref {
	if _, _, end, ok := c.shortHeader(r); ok {
		return end
	}
	_, bodyLen, body, err := c.header(r)
	if err != nil {
		return Ref(len(c.Buf))
	}
	return body + Ref(bodyLen)
}

// SubtreeBytes returns the raw encoding of the subtree at r. The slice
// aliases the cursor's buffer.
func (c Cursor) SubtreeBytes(r Ref) []byte {
	return c.Buf[r:c.SubtreeEnd(r)]
}

// Children returns an iterator over the child nodes of the element at r.
func (c Cursor) Children(r Ref) ChildIter {
	tag, bodyLen, body, err := c.header(r)
	if err != nil || tag == 1 {
		return ChildIter{}
	}
	return ChildIter{c: c, pos: body, end: body + Ref(bodyLen)}
}

// Decode reconstructs the subtree rooted at r as a Node tree.
func (c Cursor) Decode(r Ref) (*Node, error) {
	n, _, err := c.decode(r)
	return n, err
}

func (c Cursor) decode(r Ref) (*Node, Ref, error) {
	tag, bodyLen, body, err := c.header(r)
	if err != nil {
		return nil, 0, err
	}
	end := body + Ref(bodyLen)
	if tag == 1 {
		return Text(string(c.Buf[body:end])), end, nil
	}
	n := &Node{Label: c.Dict.Label(uint32(tag >> 1))}
	pos := body
	for pos < end {
		child, next, err := c.decode(pos)
		if err != nil {
			return nil, 0, err
		}
		n.Children = append(n.Children, child)
		pos = next
	}
	return n, end, nil
}

// Depth returns the depth of the subtree at r (a leaf has depth 1).
func (c Cursor) Depth(r Ref) int {
	max := 0
	it := c.Children(r)
	for {
		child, ok := it.Next()
		if !ok {
			break
		}
		if d := c.Depth(child); d > max {
			max = d
		}
	}
	return max + 1
}

// ChildIter iterates over the children of one element.
type ChildIter struct {
	c        Cursor
	pos, end Ref
}

// Next returns the offset of the next child, or false when exhausted.
func (it *ChildIter) Next() (Ref, bool) {
	if it.pos >= it.end || it.c.Buf == nil {
		return 0, false
	}
	r := it.pos
	it.pos = it.c.SubtreeEnd(r)
	return r, true
}

// cursorStream walks a binary-encoded subtree emitting events whose Ptr
// values are base+offset, so an index entry can point back into storage.
type cursorStream struct {
	c     Cursor
	base  uint64
	stack []cursorFrame
}

type cursorFrame struct {
	ref    Ref
	it     ChildIter
	opened bool
}

// NewCursorStream returns an EventStream over the encoded subtree at r.
// Every event's Ptr is base plus the node's byte offset in the buffer.
func NewCursorStream(c Cursor, r Ref, base uint64) EventStream {
	return &cursorStream{c: c, base: base, stack: []cursorFrame{{ref: r}}}
}

func (s *cursorStream) Next() (Event, error) {
	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		if !top.opened {
			top.opened = true
			ptr := s.base + uint64(top.ref)
			if s.c.IsText(top.ref) {
				ev := Event{Kind: TextEvent, Value: s.c.Text(top.ref), Ptr: ptr}
				s.stack = s.stack[:len(s.stack)-1]
				return ev, nil
			}
			top.it = s.c.Children(top.ref)
			return Event{Kind: Open, Label: s.c.Label(top.ref), Ptr: ptr}, nil
		}
		if child, ok := top.it.Next(); ok {
			s.stack = append(s.stack, cursorFrame{ref: child})
			continue
		}
		ev := Event{Kind: Close, Label: s.c.Label(top.ref), Ptr: s.base + uint64(top.ref)}
		s.stack = s.stack[:len(s.stack)-1]
		return ev, nil
	}
	var zero Event
	return zero, io.EOF
}

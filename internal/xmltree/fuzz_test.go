package xmltree

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// FuzzParseXML asserts the parser's hardening contract on arbitrary
// bytes: under tight limits it must return a tree or an error — never
// panic, hang, or blow the stack — and any tree it accepts must survive
// a marshal → parse round trip.
func FuzzParseXML(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a><b>text</b><b/></a>`,
		`<bib><article><author><email>x@y</email></author></article></bib>`,
		`<a>&lt;escaped&gt;</a>`,
		`<a><!-- comment --><?pi data?><b xmlns:x="u" x:attr="v"/></a>`,
		strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40),
		`<a><b></a></b>`, // mismatched
		`<a>` + strings.Repeat("<b/>", 50) + `</a>`,
		``,
		`not xml at all`,
		`<A:0/>`, // a prefixed name whose local part is not a name
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lim := ParseLimits{MaxDepth: 64, MaxTokenBytes: 1 << 16, MaxChildren: 1 << 10, MaxNodes: 1 << 16}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseWithLimits(strings.NewReader(s), lim)
		if err != nil {
			return
		}
		if n == nil {
			t.Fatal("nil root without error")
		}
		out := MarshalString(n)
		if _, err := ParseWithLimits(strings.NewReader(out), lim); err != nil {
			t.Fatalf("marshal output does not re-parse: %v\ninput  %q\noutput %q", err, s, out)
		}
	})
}

// plainHeader decodes the node header at r with binary.Uvarint alone, as
// every Cursor method did before the short decode: the reference
// FuzzNodeHeader holds them to. ok is false for corrupt data.
func plainHeader(buf []byte, r Ref) (tag, bodyLen uint64, body Ref, ok bool) {
	tag, n1 := binary.Uvarint(buf[r:])
	if n1 <= 0 {
		return 0, 0, 0, false
	}
	bodyLen, n2 := binary.Uvarint(buf[int(r)+n1:])
	if n2 <= 0 {
		return 0, 0, 0, false
	}
	body = r + Ref(n1) + Ref(n2)
	if int(body)+int(bodyLen) > len(buf) {
		return 0, 0, 0, false
	}
	return tag, bodyLen, body, true
}

// FuzzNodeHeader holds every decode of a node header — Span, SubtreeEnd,
// QuickSpan and the header behind the other Cursor methods — to the plain
// binary.Uvarint decode, on arbitrary bytes and at every start offset:
// long varints, headers cut off by the end of the buffer and bodies that
// run past it included.
func FuzzNodeHeader(f *testing.F) {
	dict := NewDict()
	for i := 0; i < 70; i++ { // label ids past 63 take a two-byte tag
		dict.ID(fmt.Sprintf("l%d", i))
	}
	wide := Elem("l69", Text(strings.Repeat("x", 200)))       // two-byte lengths
	huge := Elem("r", Text(strings.Repeat("y", 20000)), wide) // a three-byte length
	for _, seed := range [][]byte{
		EncodeBinary(Elem("a", Elem("b", Text("x")), Elem("c")), dict),
		EncodeBinary(wide, dict),
		EncodeBinary(huge, dict),
		{0x80, 0x80, 0x01, 0x00},       // a three-byte tag
		{0x02, 0x80, 0x80, 0x80, 0x00}, // a four-byte length
		{0x02, 0xff, 0xff, 0xff, 0x7f}, // a four-byte length past the end
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}, // a ten-byte tag
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00}, // a ten-byte tag that overflows
		{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x01}, // an eleven-byte length
		{0x84},             // the tag cut off
		{0x84, 0x81},       // the tag's second byte continues
		{0x02, 0x80},       // the length cut off
		{0x02, 0x81, 0x80}, // a three-byte length cut off
		{0x02, 0x05, 'a'},  // the body past the end
		{0x02, 0x80, 0x01}, // a two-byte length past the end
		{0x01, 0x80, 0x00}, // an overlong zero length
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		c := Cursor{Buf: buf, Dict: dict}
		for r := Ref(0); int(r) <= len(buf); r++ {
			tag, bodyLen, body, valid := plainHeader(buf, r)
			label, isText, end := uint32(tag>>1), tag == 1, body+Ref(bodyLen)
			if isText {
				label = 0
			}
			if !valid { // an empty, unlabeled element to the end of the buffer
				label, isText, body, end = 0, false, Ref(len(buf)), Ref(len(buf))
			}
			if gl, gt, gb, ge := c.Span(r); gl != label || gt != isText || gb != body || ge != end {
				t.Fatalf("Span(%d) of % x = (%d, %v, %d, %d), Uvarint decodes (%d, %v, %d, %d)", r, buf, gl, gt, gb, ge, label, isText, body, end)
			}
			if got := c.SubtreeEnd(r); got != end {
				t.Fatalf("SubtreeEnd(%d) of % x = %d, Uvarint decodes %d", r, buf, got, end)
			}
			if ql, qt, qb, qe, ok := c.QuickSpan(r); ok && (!valid || ql != label || qt != isText || qb != body || qe != end) {
				t.Fatalf("QuickSpan(%d) of % x = (%d, %v, %d, %d), Uvarint decodes (%d, %v, %d, %d, valid %v)", r, buf, ql, qt, qb, qe, label, isText, body, end, valid)
			}
			ht, hl, hb, err := c.header(r)
			if (err == nil) != valid || valid && (ht != tag || hl != bodyLen || hb != body) {
				t.Fatalf("header(%d) of % x = (%d, %d, %d, %v), Uvarint decodes (%d, %d, %d, valid %v)", r, buf, ht, hl, hb, err, tag, bodyLen, body, valid)
			}
		}
	})
}

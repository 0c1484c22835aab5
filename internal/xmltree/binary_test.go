package xmltree

import (
	"testing"
	"testing/quick"
)

func encodeSample(t *testing.T) (Cursor, *Node) {
	t.Helper()
	n := sample()
	dict := NewDict()
	buf := EncodeBinary(n, dict)
	return Cursor{Buf: buf, Dict: dict}, n
}

func TestCursorNavigation(t *testing.T) {
	c, _ := encodeSample(t)
	if got := c.Label(0); got != "bib" {
		t.Fatalf("root label = %q", got)
	}
	it := c.Children(0)
	first, ok := it.Next()
	if !ok || c.Label(first) != "article" {
		t.Fatalf("first child = %q, ok=%v", c.Label(first), ok)
	}
	second, ok := it.Next()
	if !ok || c.Label(second) != "book" {
		t.Fatalf("second child = %q, ok=%v", c.Label(second), ok)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("expected exhausted iterator")
	}
	// article's first child is title, whose child is the text node.
	at := c.Children(first)
	title, _ := at.Next()
	if c.Label(title) != "title" {
		t.Fatalf("title label = %q", c.Label(title))
	}
	tt := c.Children(title)
	txt, ok := tt.Next()
	if !ok || !c.IsText(txt) || c.Text(txt) != "t1" {
		t.Fatalf("text node = %q (isText=%v)", c.Text(txt), c.IsText(txt))
	}
	if c.Text(title) != "" {
		t.Error("Text on element should be empty")
	}
	if c.Label(txt) != "" || c.LabelID(txt) != 0 {
		t.Error("Label on text node should be empty")
	}
}

func TestCursorSubtree(t *testing.T) {
	c, n := encodeSample(t)
	it := c.Children(0)
	art, _ := it.Next()
	sub := c.SubtreeBytes(art)
	// Decoding the extracted slice must reproduce the article subtree.
	back, used, err := DecodeBinary(sub, c.Dict)
	if err != nil || used != len(sub) {
		t.Fatalf("decode: used=%d len=%d err=%v", used, len(sub), err)
	}
	if !back.Equal(n.Children[0]) {
		t.Errorf("subtree %v != %v", back, n.Children[0])
	}
}

func TestCursorDepth(t *testing.T) {
	c, n := encodeSample(t)
	if got, want := c.Depth(0), n.Depth(); got != want {
		t.Errorf("cursor depth = %d, want %d", got, want)
	}
}

func TestCursorDecode(t *testing.T) {
	c, n := encodeSample(t)
	back, err := c.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(n) {
		t.Errorf("Decode = %v, want %v", back, n)
	}
}

func TestCorruptBuffer(t *testing.T) {
	dict := NewDict()
	// A header promising more body bytes than the buffer holds.
	c := Cursor{Buf: []byte{4, 200}, Dict: dict}
	if _, err := c.Decode(0); err == nil {
		t.Error("decoding corrupt buffer succeeded")
	}
	if c.LabelID(0) != 0 {
		t.Error("LabelID on corrupt buffer should be 0")
	}
}

// TestCursorSpan checks the one-decode accessor against the per-property
// ones on every node, and that walking sibling to sibling by its end
// offset covers a node's children exactly.
func TestCursorSpan(t *testing.T) {
	c, _ := encodeSample(t)
	var walk func(r Ref)
	walk = func(r Ref) {
		label, isText, body, end := c.Span(r)
		if isText != c.IsText(r) || label != c.LabelID(r) || end != c.SubtreeEnd(r) {
			t.Fatalf("Span(%d) = (%d, %v, _, %d), want (%d, %v, _, %d)",
				r, label, isText, end, c.LabelID(r), c.IsText(r), c.SubtreeEnd(r))
		}
		if isText {
			if got := string(c.Buf[body:end]); got != c.Text(r) {
				t.Fatalf("Span(%d) text = %q, want %q", r, got, c.Text(r))
			}
			return
		}
		pos := body
		it := c.Children(r)
		for child, ok := it.Next(); ok; child, ok = it.Next() {
			if pos != child {
				t.Fatalf("walking Span ends under %d reached %d, Children yields %d", r, pos, child)
			}
			walk(child)
			_, _, _, pos = c.Span(child)
		}
		if pos != end {
			t.Fatalf("children of %d end at %d, Span says %d", r, pos, end)
		}
	}
	walk(0)

	// A truncated buffer decodes as an empty element ending at the end of
	// the buffer, so a sibling walk over it stops.
	cut := Cursor{Buf: c.Buf[:3], Dict: c.Dict}
	if label, isText, body, end := cut.Span(0); label != 0 || isText || body != 3 || end != 3 {
		t.Errorf("Span on a truncated buffer = (%d, %v, %d, %d), want (0, false, 3, 3)", label, isText, body, end)
	}
}

func TestCursorStreamMatchesTreeStream(t *testing.T) {
	f := func(seed uint64) bool {
		n := genTree(seed, 5)
		dict := NewDict()
		buf := EncodeBinary(n, dict)
		c := Cursor{Buf: buf, Dict: dict}
		evA, err := Collect(NewTreeStream(n, 0))
		if err != nil {
			return false
		}
		evB, err := Collect(NewCursorStream(c, 0, 0))
		if err != nil {
			return false
		}
		if len(evA) != len(evB) {
			return false
		}
		for i := range evA {
			// Pointers differ by construction (ordinals vs offsets);
			// kinds, labels and values must agree.
			if evA[i].Kind != evB[i].Kind || evA[i].Label != evB[i].Label || evA[i].Value != evB[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCursorStreamPointers(t *testing.T) {
	c, _ := encodeSample(t)
	const base = 1 << 40
	evs, err := Collect(NewCursorStream(c, 0, base))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		off := ev.Ptr - base
		if ev.Ptr < base || int(off) >= len(c.Buf) {
			t.Fatalf("event pointer %d out of range", ev.Ptr)
		}
		if ev.Kind == Open && c.Label(Ref(off)) != ev.Label {
			t.Errorf("pointer %d resolves to %q, event says %q", off, c.Label(Ref(off)), ev.Label)
		}
	}
}

package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	n, err := ParseString(`<a><b>hi</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want := Elem("a", Elem("b", Text("hi")), Elem("c"))
	if !n.Equal(want) {
		t.Errorf("parsed %v, want %v", n, want)
	}
}

func TestParseSkipsWhitespaceAndDecorations(t *testing.T) {
	n, err := ParseString("<?xml version=\"1.0\"?>\n<a>\n  <!-- comment -->\n  <b attr=\"ignored\">x</b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	want := Elem("a", Elem("b", Text("x")))
	if !n.Equal(want) {
		t.Errorf("parsed %v, want %v", n, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"<a>",
		"<a></b>",
		"<a></a><b></b>",
		"just text",
		"<A:0/>", // the local name, which the tree keeps, is not a name
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	orig := Elem("bib",
		Elem("article", Elem("title", Text("a < b & c"))),
		Elem("note", Text(`quotes " and '`)))
	s := MarshalString(orig)
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s, err)
	}
	if !back.Equal(orig) {
		t.Errorf("round trip %v -> %q -> %v", orig, s, back)
	}
}

// genTree builds a deterministic pseudo-random tree from an integer seed,
// suitable for quick-check roundtrips.
func genTree(seed uint64, depth int) *Node {
	labels := []string{"a", "bb", "ccc", "d-e", "f_g"}
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	var build func(d int) *Node
	build = func(d int) *Node {
		if d <= 0 || next()%4 == 0 {
			if next()%3 == 0 {
				return Text("txt" + labels[next()%5])
			}
			return Elem(labels[next()%5])
		}
		n := Elem(labels[next()%5])
		for i := uint64(0); i < next()%4; i++ {
			c := build(d - 1)
			if c.IsText() && len(n.Children) > 0 && n.Children[len(n.Children)-1].IsText() {
				continue // adjacent text nodes merge on reparse; keep trees canonical
			}
			n.Children = append(n.Children, c)
		}
		return n
	}
	root := build(depth)
	if root.IsText() {
		root = Elem("root", root)
	}
	return root
}

func TestQuickMarshalParseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		orig := genTree(seed, 5)
		back, err := ParseString(MarshalString(orig))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return back.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		orig := genTree(seed, 6)
		dict := NewDict()
		buf := EncodeBinary(orig, dict)
		back, n, err := DecodeBinary(buf, dict)
		if err != nil || n != len(buf) {
			return false
		}
		return back.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMarshalEmpty(t *testing.T) {
	var sb strings.Builder
	if err := Marshal(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Errorf("Marshal(nil) wrote %q", sb.String())
	}
}

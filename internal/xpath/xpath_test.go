package xpath

import (
	"testing"
)

func TestParseSimplePaths(t *testing.T) {
	p, err := Parse("/a/b//c")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if p.Steps[0].Axis != Child || p.Steps[0].Name != "a" {
		t.Errorf("step 0 = %+v", p.Steps[0])
	}
	if p.Steps[2].Axis != Descendant || p.Steps[2].Name != "c" {
		t.Errorf("step 2 = %+v", p.Steps[2])
	}
}

func TestParsePredicates(t *testing.T) {
	p, err := Parse("//article[author][title/i]/ee")
	if err != nil {
		t.Fatal(err)
	}
	art := p.Steps[0]
	if len(art.Preds) != 2 {
		t.Fatalf("preds = %d", len(art.Preds))
	}
	if art.Preds[0].Path[0].Name != "author" {
		t.Errorf("pred 0 = %+v", art.Preds[0])
	}
	if len(art.Preds[1].Path) != 2 || art.Preds[1].Path[1].Name != "i" {
		t.Errorf("pred 1 = %+v", art.Preds[1])
	}
}

func TestParseValuePredicates(t *testing.T) {
	p, err := Parse(`//proceedings[publisher="Springer"][title]`)
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Steps[0].Preds[0]
	if !pr.HasValue || pr.Value != "Springer" || pr.Path[0].Name != "publisher" {
		t.Errorf("value pred = %+v", pr)
	}
	// Spaces and single quotes.
	p, err = Parse(`//a[b = 'x y']`)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Steps[0].Preds[0].Value; v != "x y" {
		t.Errorf("value = %q", v)
	}
}

func TestParseDescendantPredicate(t *testing.T) {
	p, err := Parse("//open_auction[.//bidder[name][email]]/price")
	if err != nil {
		t.Fatal(err)
	}
	pred := p.Steps[0].Preds[0]
	if pred.Path[0].Axis != Descendant || pred.Path[0].Name != "bidder" {
		t.Errorf("descendant pred = %+v", pred.Path[0])
	}
	if len(pred.Path[0].Preds) != 2 {
		t.Errorf("nested preds = %d", len(pred.Path[0].Preds))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"a/b",     // missing leading axis
		"//",      // missing name
		"//a[",    // unterminated predicate
		"//a[b",   // unterminated predicate
		`//a[b="`, // unterminated string
		"//a]",    // stray bracket
		"//a[]",   // empty predicate
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, expr := range []string{
		"/article/epilog[acknoledgements]/references/a_id",
		"//article[number]/author",
		"//proceedings[booktitle]/title[sup][i]",
		"//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
		"//open_auction[.//bidder[name][email]]/price",
		`//proceedings[publisher="Springer"][title]`,
		// Values are written as the parser reads them, byte for byte:
		// backslashes, control and non-UTF-8 bytes, the other quote.
		"//a[b=\"back\\slash \x7f\xff\"][c='say \"hi\"']",
	} {
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", p.String(), expr, err)
		}
		if back.String() != p.String() {
			t.Errorf("unstable print: %q -> %q", p.String(), back.String())
		}
		if back.Tree().String() != p.Tree().String() {
			t.Errorf("unstable tree print: %q -> %q", p.Tree().String(), back.Tree().String())
		}
	}
}

func TestTreeShape(t *testing.T) {
	p := MustParse("//a[b][c/d]/e")
	root := p.Tree()
	if root.Name != "a" || root.Axis != Descendant {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("children = %d", len(root.Children))
	}
	// Predicates first, trunk continuation last.
	if root.Children[0].Name != "b" || root.Children[1].Name != "c" || root.Children[2].Name != "e" {
		t.Errorf("child order: %v %v %v", root.Children[0].Name, root.Children[1].Name, root.Children[2].Name)
	}
	if !root.Children[2].Output {
		t.Error("trunk tail not marked Output")
	}
	if root.Children[0].Output || root.Children[1].Output {
		t.Error("predicate marked Output")
	}
	if root.Children[1].Children[0].Name != "d" {
		t.Error("nested predicate chain broken")
	}
}

func TestTreeValueLeaf(t *testing.T) {
	p := MustParse(`//a[b="v"]`)
	root := p.Tree()
	b := root.Children[0]
	if len(b.Children) != 1 || !b.Children[0].IsValue || b.Children[0].Value != "v" {
		t.Errorf("value leaf = %+v", b.Children)
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		expr string
		want int
	}{
		{"//a", 1},
		{"//a/b", 2},
		{"//a[b][c]", 2},
		{"//a[b/c]/d", 3},
		{`//a[b="v"]`, 3}, // value leaf counts as a level
	}
	for _, c := range cases {
		if got := MustParse(c.expr).Tree().Depth(); got != c.want {
			t.Errorf("Depth(%s) = %d, want %d", c.expr, got, c.want)
		}
	}
}

func TestDecompose(t *testing.T) {
	p := MustParse("//open_auction[.//bidder[name][email]]/price")
	twigs := Decompose(p.Tree())
	if len(twigs) != 2 {
		t.Fatalf("twigs = %d", len(twigs))
	}
	if !twigs[0].Top {
		t.Error("first twig not marked Top")
	}
	top := twigs[0].Root
	if top.Name != "open_auction" || len(top.Children) != 1 || top.Children[0].Name != "price" {
		t.Errorf("top twig = %s", top)
	}
	sub := twigs[1].Root
	if sub.Name != "bidder" || len(sub.Children) != 2 {
		t.Errorf("descendant twig = %s", sub)
	}
	if !top.IsTwig() || !sub.IsTwig() {
		t.Error("decomposed parts are not twigs")
	}
	// Original tree untouched.
	if len(p.Tree().Children) != 2 {
		t.Error("Tree() no longer reproducible")
	}
}

func TestDecomposeMidPathDescendant(t *testing.T) {
	p := MustParse("//a/b//c/d")
	twigs := Decompose(p.Tree())
	if len(twigs) != 2 {
		t.Fatalf("twigs = %d", len(twigs))
	}
	if twigs[0].Root.Name != "a" || twigs[1].Root.Name != "c" {
		t.Errorf("twig roots = %s, %s", twigs[0].Root.Name, twigs[1].Root.Name)
	}
}

func TestIsTwig(t *testing.T) {
	if !MustParse("//a[b][c/d]").Tree().IsTwig() {
		t.Error("pure child-axis tree not recognized as twig")
	}
	if MustParse("//a[.//b]").Tree().IsTwig() {
		t.Error("descendant predicate recognized as twig")
	}
}

func TestCloneIndependence(t *testing.T) {
	root := MustParse("//a[b]/c").Tree()
	cp := root.Clone()
	cp.Children[0].Name = "mutated"
	if root.Children[0].Name == "mutated" {
		t.Error("Clone shares nodes")
	}
}

func TestWalk(t *testing.T) {
	var names []string
	MustParse("//a[b][c]/d").Tree().Walk(func(n *QNode) {
		names = append(names, n.Name)
	})
	if len(names) != 4 || names[0] != "a" || names[3] != "d" {
		t.Errorf("walk = %v", names)
	}
}

func TestAxisString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" {
		t.Error("axis strings wrong")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on garbage did not panic")
		}
	}()
	MustParse("not a path")
}

func TestPathStringNestedPredicates(t *testing.T) {
	for _, expr := range []string{
		"//a[b[c][d]]/e",
		"//a[.//b[c]]/d",
		`//a[b[c]="v"]`,
	} {
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		re, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if re.String() != p.String() {
			t.Errorf("unstable: %q -> %q", p.String(), re.String())
		}
	}
}

func TestQNodeStringValueLeaf(t *testing.T) {
	n := MustParse(`//a[b="v"]`).Tree()
	s := n.String()
	if s == "" {
		t.Fatal("empty render")
	}
	// The rendered form must be re-parseable.
	if _, err := Parse(s); err != nil {
		t.Errorf("render %q does not re-parse: %v", s, err)
	}
}

func TestDepthNil(t *testing.T) {
	var n *QNode
	if n.Depth() != 0 {
		t.Error("nil depth != 0")
	}
	if Decompose(nil) != nil {
		t.Error("Decompose(nil) != nil")
	}
	if n.Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
	n.Walk(func(*QNode) { t.Error("walk visited nil") })
}

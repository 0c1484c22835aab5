package nok

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/oracle"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

func compileOn(t *testing.T, doc, query string) (*Query, xmltree.Cursor) {
	t.Helper()
	n, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	dict := xmltree.NewDict()
	buf := xmltree.EncodeBinary(n, dict)
	q, err := Compile(xpath.MustParse(query).Tree(), dict)
	if err != nil {
		t.Fatal(err)
	}
	return q, xmltree.Cursor{Buf: buf, Dict: dict}
}

func TestExistsBasic(t *testing.T) {
	doc := `<bib><article><author><email/></author></article><book><author><phone/></author></book></bib>`
	cases := []struct {
		query string
		want  bool
	}{
		{"//article", true},
		{"//article/author/email", true},
		{"//article/author/phone", false},
		{"//author[email]", true},
		{"//author[email][phone]", false},
		{"//bib[article][book]", true},
		{"/bib/book/author", true},
		{"/article", false}, // root is bib
		{"//bib//email", true},
		{"//article//phone", false},
		{"//unknownlabel", false},
	}
	for _, c := range cases {
		q, cur := compileOn(t, doc, c.query)
		if got := q.Exists(cur, 0); got != c.want {
			t.Errorf("Exists(%s) = %v, want %v", c.query, got, c.want)
		}
	}
}

func TestOutputsCountAndOrder(t *testing.T) {
	doc := `<r><a><b/><b/></a><a><b/></a><c><a><b/></a></c></r>`
	q, cur := compileOn(t, doc, "//a/b")
	outs := q.Outputs(cur, 0)
	if len(outs) != 4 {
		t.Fatalf("outputs = %d, want 4", len(outs))
	}
	for i := 1; i < len(outs); i++ {
		if outs[i-1] >= outs[i] {
			t.Error("outputs not in document order")
		}
	}
	for _, r := range outs {
		if cur.Label(r) != "b" {
			t.Errorf("output labeled %q", cur.Label(r))
		}
	}
}

func TestOutputsDedupAcrossEmbeddings(t *testing.T) {
	// The same b matches via two different a-ancestors with //: it must
	// be reported once.
	doc := `<a><a><b/></a></a>`
	q, cur := compileOn(t, doc, "//a//b")
	if got := q.Count(cur, 0); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

func TestValuePredicates(t *testing.T) {
	doc := `<lib><book><publisher>Springer</publisher></book><book><publisher>ACM</publisher></book></lib>`
	cases := []struct {
		query string
		want  int
	}{
		{`//book[publisher="Springer"]`, 1},
		{`//book[publisher="ACM"]`, 1},
		{`//book[publisher="IEEE"]`, 0},
		{`//book[publisher]`, 2},
	}
	for _, c := range cases {
		q, cur := compileOn(t, doc, c.query)
		if got := q.Count(cur, 0); got != c.want {
			t.Errorf("Count(%s) = %d, want %d", c.query, got, c.want)
		}
	}
}

func TestRootAnchoredVsDescendant(t *testing.T) {
	doc := `<a><a><b/></a></a>`
	q, cur := compileOn(t, doc, "/a/b")
	if q.Exists(cur, 0) {
		t.Error("/a/b should not match (b is under the inner a)")
	}
	q, cur = compileOn(t, doc, "//a/b")
	if !q.Exists(cur, 0) {
		t.Error("//a/b should match")
	}
}

func TestCompileErrors(t *testing.T) {
	dict := xmltree.NewDict()
	if _, err := Compile(nil, dict); err == nil {
		t.Error("nil query accepted")
	}
	// Build a query wider than the bitmask.
	wide := &xpath.QNode{Name: "r"}
	for i := 0; i < 70; i++ {
		wide.Children = append(wide.Children, &xpath.QNode{Name: "c"})
	}
	if _, err := Compile(wide, dict); err == nil {
		t.Error("oversized query accepted")
	}
}

// Three labels and two text values keep random documents full of
// same-label siblings and recursive labels, and random queries likely
// to bind.
var (
	testLabels = []string{"a", "b", "c"}
	testValues = []string{"x", "y"}
)

func randomDoc(rng *rand.Rand, depth int) *xmltree.Node {
	n := xmltree.Elem(testLabels[rng.Intn(len(testLabels))])
	if depth <= 0 {
		return n
	}
	for i := rng.Intn(4); i > 0; i-- {
		if rng.Intn(5) == 0 {
			n.Children = append(n.Children, xmltree.Text(testValues[rng.Intn(len(testValues))]))
		} else {
			n.Children = append(n.Children, randomDoc(rng, depth-1))
		}
	}
	return n
}

// randomQuery builds a twig of at most the given depth whose edges are
// descendant axes with probability descProb, with value leaves mixed in,
// and marks one uniformly chosen element node as the output.
func randomQuery(rng *rand.Rand, depth int, descProb float64) *xpath.QNode {
	axis := func() xpath.Axis {
		if rng.Float64() < descProb {
			return xpath.Descendant
		}
		return xpath.Child
	}
	var elems []*xpath.QNode
	var build func(d int, a xpath.Axis) *xpath.QNode
	build = func(d int, a xpath.Axis) *xpath.QNode {
		n := &xpath.QNode{Name: testLabels[rng.Intn(len(testLabels))], Axis: a}
		elems = append(elems, n)
		if d <= 0 {
			return n
		}
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(6) == 0 {
				n.Children = append(n.Children, &xpath.QNode{IsValue: true, Value: testValues[rng.Intn(len(testValues))], Axis: axis()})
			} else {
				n.Children = append(n.Children, build(d-1, axis()))
			}
		}
		return n
	}
	root := build(depth, xpath.Child)
	if rng.Intn(2) == 0 {
		root.Axis = xpath.Descendant
	}
	elems[rng.Intn(len(elems))].Output = true
	return root
}

// TestAgainstNaiveReference is the differential oracle: on seeded random
// document/query pairs the matcher must agree with the all-embeddings
// reference (internal/oracle) on existence, on the count, and on the output nodes in
// document order; and the budgeted entry point with a nil budget must be
// the plain one. The coverage map proves the generator reached every
// shape the matcher treats differently.
func TestAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dict := xmltree.NewDict()
	for _, l := range testLabels {
		dict.ID(l) // a label absent from the data would make queries trivially empty
	}
	covered := map[string]int{}
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		doc := randomDoc(rng, 5)
		cur := xmltree.Cursor{Buf: xmltree.EncodeBinary(doc, dict), Dict: dict}
		qt := randomQuery(rng, 3, 0.3)
		q, err := Compile(qt, dict)
		if err != nil {
			t.Fatal(err)
		}
		want, matched := oracle.Outputs(cur, qt)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d: %s\ndoc: %s\nquery: %s", trial, fmt.Sprintf(format, args...), doc, qt)
		}
		if got := q.Exists(cur, 0); got != matched {
			fail("Exists = %v, reference %v", got, matched)
		}
		p := q.NewPass(context.Background(), 0)
		if got, err := p.Exists(cur, 0); err != nil || got != matched {
			fail("Pass.Exists = %v, %v, reference %v", got, err, matched)
		}
		p.Release()
		got := q.Outputs(cur, 0)
		if len(got) != len(want) {
			fail("Outputs = %v, reference %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				fail("Outputs = %v, reference %v", got, want)
			}
		}
		count, visited := q.Eval(cur, 0)
		if count != len(want) || q.Count(cur, 0) != count {
			fail("Eval count = %d, Count = %d, reference %d", count, q.Count(cur, 0), len(want))
		}
		if bc, bv, err := q.EvalBudget(cur, 0, nil); err != nil || bc != count || bv != visited {
			fail("EvalBudget(nil) = (%d, %d, %v), Eval = (%d, %d)", bc, bv, err, count, visited)
		}

		covered[fmt.Sprintf("root axis %v", qt.Axis)]++
		covered[fmt.Sprintf("outputs %d", min(len(want), 2))]++
		var walk func(n *xpath.QNode, depth int)
		walk = func(n *xpath.QNode, depth int) {
			if n.Output {
				covered[fmt.Sprintf("output at depth %d", depth)]++
				where := "an inner node"
				switch {
				case depth == 0:
					where = "the root"
				case len(n.Children) == 0:
					where = "a leaf"
				}
				covered[fmt.Sprintf("output at %s, exists %t", where, matched)]++
			}
			if n.IsValue {
				covered[fmt.Sprintf("value leaf on %v", n.Axis)]++
			} else if depth > 0 && n.Axis == xpath.Descendant {
				covered[fmt.Sprintf("inner // at depth %d", depth)]++
			}
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(qt, 0)
	}
	for _, shape := range []string{
		"root axis /", "root axis //", "outputs 0", "outputs 1", "outputs 2",
		"output at depth 0", "output at depth 1", "output at depth 2", "output at depth 3",
		"inner // at depth 1", "inner // at depth 2", "inner // at depth 3",
		"value leaf on /", "value leaf on //",
	} {
		if covered[shape] < trials/100 {
			t.Errorf("only %d of %d trials covered %q", covered[shape], trials, shape)
		}
	}
	// Where the output lies decides what the first pass records and where
	// a node may stop early; each place is met with and without a match.
	for _, where := range []string{"the root", "an inner node", "a leaf"} {
		for _, exists := range []bool{true, false} {
			if shape := fmt.Sprintf("output at %s, exists %t", where, exists); covered[shape] < trials/200 {
				t.Errorf("only %d of %d trials covered %q", covered[shape], trials, shape)
			}
		}
	}
}

// withinDepth counts the nodes of the subtree at r at depth <= h (r is
// at depth 0) and the nodes of the whole subtree.
func withinDepth(cur xmltree.Cursor, r xmltree.Ref, h int) (near, all int) {
	all = 1
	near = 1
	it := cur.Children(r)
	for c, more := it.Next(); more; c, more = it.Next() {
		n, a := withinDepth(cur, c, h-1)
		all += a
		if h > 0 {
			near += n
		}
	}
	return near, all
}

// TestVisitsBoundedByTwigHeight pins the pruning the refinement speed
// rests on: a child-axis twig of height h can only bind nodes within
// depth h of the candidate root, so the matcher must not decode anything
// deeper, however large the subtree is.
func TestVisitsBoundedByTwigHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dict := xmltree.NewDict()
	for _, l := range testLabels {
		dict.ID(l)
	}
	for trial := 0; trial < 500; trial++ {
		doc := randomDoc(rng, 8)
		cur := xmltree.Cursor{Buf: xmltree.EncodeBinary(doc, dict), Dict: dict}
		qt := randomQuery(rng, 3, 0)
		qt.Axis = xpath.Child
		qt.Name = doc.Label // bind the root, so the twig is actually walked
		q, err := Compile(qt, dict)
		if err != nil {
			t.Fatal(err)
		}
		h := qt.Depth() - 1
		near, _ := withinDepth(cur, 0, h)
		_, visited := q.Eval(cur, 0)
		if visited > near {
			t.Fatalf("trial %d: visited %d nodes, only %d lie within the twig's height %d\ndoc: %s\nquery: %s",
				trial, visited, near, h, doc, qt)
		}
	}

	// Strictly fewer than the subtree on a deep document: a chain of 1000 <a> elements, each with a <b/>.
	deep := xmltree.Elem("a", xmltree.Elem("b"))
	for i := 0; i < 999; i++ {
		deep = xmltree.Elem("a", xmltree.Elem("b"), deep)
	}
	cur := xmltree.Cursor{Buf: xmltree.EncodeBinary(deep, dict), Dict: dict}
	q, err := Compile(xpath.MustParse("/a[b]/a/b").Tree(), dict)
	if err != nil {
		t.Fatal(err)
	}
	count, visited := q.Eval(cur, 0)
	if _, all := withinDepth(cur, 0, 0); count != 1 || visited != 5 || all != 2000 {
		t.Errorf("/a[b]/a/b on a 1000-deep chain: count %d, visited %d of %d nodes; want 1 match from the 5 nodes within depth 2", count, visited, all)
	}
}

// TestSettledStop: a node stops walking its children once every query
// node it binds is satisfied, when no // obligation is pending and the
// output does not lie below it. /a[b] over an <a> whose first child is
// <b/> decodes those two nodes, however many siblings follow; with the
// output below the bound node, a // obligation pending or an obligation
// never met, every sibling is still read — except by an existence check,
// which has no output to find.
func TestSettledStop(t *testing.T) {
	doc := "<a><b/>" + strings.Repeat("<c/>", 1000) + "</a>"
	for _, tc := range []struct {
		query                   string
		count, visited, existed int
	}{
		{"/a[b]", 1, 2, 2},
		{"/a[b][c]", 1, 3, 3},
		{"/a/b", 1, 1002, 2},
		{"/a[b]/c", 1000, 1002, 3},
		{"//a[b]", 1, 1002, 1002},
		{"/a[b/c]", 0, 1002, 1002},
	} {
		q, cur := compileOn(t, doc, tc.query)
		count, visited := q.Eval(cur, 0)
		if count != tc.count || visited != tc.visited {
			t.Errorf("%s: %d results over %d visits, want %d over %d", tc.query, count, visited, tc.count, tc.visited)
		}
		p := q.NewPass(context.Background(), 0)
		if ok, err := p.Exists(cur, 0); err != nil || ok != (tc.count > 0) || p.s.visited != tc.existed {
			t.Errorf("%s: Exists = %t, %v over %d visits, want %t over %d", tc.query, ok, err, p.s.visited, tc.count > 0, tc.existed)
		}
		p.Release()
	}
}

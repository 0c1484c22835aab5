package joins

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/fix-index/fix/internal/experiments/internal/tagindex"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

func buildStore(t *testing.T, docs []string) *storage.Store {
	t.Helper()
	st, err := storage.NewStore(storage.NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func nokCount(t *testing.T, st *storage.Store, q *xpath.Path) int {
	t.Helper()
	nq, err := nok.Compile(q.Tree(), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for rec := 0; rec < st.NumRecords(); rec++ {
		cur, err := st.Cursor(uint32(rec))
		if err != nil {
			t.Fatal(err)
		}
		total += nq.Count(cur, 0)
	}
	return total
}

func TestStructuralJoinBasic(t *testing.T) {
	st := buildStore(t, []string{
		`<bib><article><author><email/></author></article><book><author><phone/></author></book></bib>`,
		`<bib><article><author/></article></bib>`,
	})
	tags, err := tagindex.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(tags)
	cases := []struct {
		query string
		want  int
	}{
		{"//article/author", 2},
		{"//author[email]", 1},
		{"//bib//author", 3},
		{"//book/author/phone", 1},
		{"/bib/article", 2},
		{"//article/phone", 0},
		{"//nosuch", 0},
	}
	for _, c := range cases {
		got, err := ev.Count(xpath.MustParse(c.query).Tree())
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("Count(%s) = %d, want %d", c.query, got, c.want)
		}
		if want := nokCount(t, st, xpath.MustParse(c.query)); got != want {
			t.Errorf("%s: joins %d, NoK %d", c.query, got, want)
		}
	}
}

func TestValuePredicateRejected(t *testing.T) {
	st := buildStore(t, []string{`<a><b>v</b></a>`})
	tags, err := tagindex.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tags).Count(xpath.MustParse(`//a[b="v"]`).Tree()); !errors.Is(err, ErrValuePredicate) {
		t.Errorf("err = %v, want ErrValuePredicate", err)
	}
}

func TestRecursiveNesting(t *testing.T) {
	// Nested same-label elements stress the ancestor stack.
	st := buildStore(t, []string{`<a><a><b/><a><b/></a></a><b/></a>`})
	tags, err := tagindex.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(tags)
	for _, c := range []struct {
		query string
		want  int
	}{
		{"//a/b", 3},
		{"//a//b", 3},
		{"//a/a", 2},
		{"//a[a]/b", 2},
		{"/a/b", 1},
	} {
		got, err := ev.Count(xpath.MustParse(c.query).Tree())
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("Count(%s) = %d, want %d", c.query, got, c.want)
		}
	}
}

func randomDoc(rng *rand.Rand, labels []string, depth int) *xmltree.Node {
	var build func(d int) *xmltree.Node
	build = func(d int) *xmltree.Node {
		n := xmltree.Elem(labels[rng.Intn(len(labels))])
		if d <= 0 {
			return n
		}
		for i := rng.Intn(4); i > 0; i-- {
			n.Children = append(n.Children, build(d-1))
		}
		return n
	}
	return build(depth)
}

func TestRandomAgainstNoK(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	labels := []string{"a", "b", "c", "d"}
	queries := []string{
		"//a/b", "//a[b][c]", "//a//d", "//b/c/d", "//a[b/c]/d",
		"/a/b", "//c[d]/a", "//d[a]//b", "//a/a/b",
	}
	for trial := 0; trial < 30; trial++ {
		st, err := storage.NewStore(storage.NewMemFile(), xmltree.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := st.AppendTree(randomDoc(rng, labels, 5)); err != nil {
				t.Fatal(err)
			}
		}
		tags, err := tagindex.Build(st)
		if err != nil {
			t.Fatal(err)
		}
		ev := New(tags)
		for _, qs := range queries {
			q := xpath.MustParse(qs)
			got, err := ev.Count(q.Tree())
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, qs, err)
			}
			if want := nokCount(t, st, q); got != want {
				t.Fatalf("trial %d %s: joins %d, NoK %d", trial, qs, got, want)
			}
		}
	}
}

func TestSemiJoinDirections(t *testing.T) {
	st := buildStore(t, []string{`<r><a><b/></a><a/><b/></r>`})
	tags, err := tagindex.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	as := tags.List("a")
	bs := tags.List("b")
	if len(as) != 2 || len(bs) != 2 {
		t.Fatalf("lists: a=%d b=%d", len(as), len(bs))
	}
	anc := SemiJoinAnc(as, bs, true)
	if len(anc) != 1 {
		t.Errorf("ancestors with b child = %d, want 1", len(anc))
	}
	desc := SemiJoinDesc(as, bs, true)
	if len(desc) != 1 {
		t.Errorf("b's with a parent = %d, want 1", len(desc))
	}
	// Descendant axis: same here (depth 1).
	if got := SemiJoinAnc(as, bs, false); len(got) != 1 {
		t.Errorf("descendant semijoin = %d", len(got))
	}
}

func TestTagIndexRegions(t *testing.T) {
	st := buildStore(t, []string{`<r><a><b/></a></r>`})
	tags, err := tagindex.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	r := tags.List("r")[0]
	a := tags.List("a")[0]
	b := tags.List("b")[0]
	if !r.Contains(a) || !a.Contains(b) || !r.Contains(b) {
		t.Error("containment relations wrong")
	}
	if b.Contains(a) || a.Contains(r) {
		t.Error("reverse containment reported")
	}
	if r.Level != 0 || a.Level != 1 || b.Level != 2 {
		t.Errorf("levels: %d %d %d", r.Level, a.Level, b.Level)
	}
	if tags.NumElements() != 3 || tags.NumLabels() != 3 {
		t.Errorf("elements=%d labels=%d", tags.NumElements(), tags.NumLabels())
	}
}

package oracle_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/oracle"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// script is an operation sequence's source of choices: a fuzz input, or
// bytes drawn from a seeded generator. Every choice takes the next byte;
// an exhausted script chooses 0.
type script struct {
	b []byte
	i int
}

func (s *script) n(k int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % k
}

func (s *script) done() bool { return s.i >= len(s.b) }

// Documents use three labels and two values, so same-label siblings and
// recursive labels are common; "d" is rare, and queries name it from the
// start, so a query text is often planned before the first document
// holding its label or one of its edges arrives — the plan cache's
// validity rule.
var (
	docLabels   = []string{"a", "b", "c"}
	queryLabels = []string{"a", "b", "c", "d"}
	values      = []string{"x", "y"}
)

func (s *script) label() string {
	if s.n(12) == 0 {
		return "d"
	}
	return docLabels[s.n(len(docLabels))]
}

func (s *script) doc(depth int) *xmltree.Node {
	n := xmltree.Elem(s.label())
	if depth == 0 {
		return n
	}
	for k := s.n(4) + depth/3; k > 0; k-- {
		if s.n(5) == 0 {
			n.Children = append(n.Children, xmltree.Text(values[s.n(len(values))]))
		} else {
			n.Children = append(n.Children, s.doc(depth-1))
		}
	}
	return n
}

// width is the number of predicates a step gets: 0 to 2, and a quarter
// of the time a wide same-parent list of 3 to 7.
func (s *script) width() int {
	if s.n(4) == 3 {
		return 3 + s.n(5)
	}
	return s.n(3)
}

// query renders a random twig of one or two steps, each with up to seven
// predicates: a child or descendant path of one or two steps, with or
// without a value.
func (s *script) query() string {
	var b strings.Builder
	for i := s.n(2); i >= 0; i-- {
		b.WriteString([]string{"/", "//"}[s.n(2)])
		b.WriteString(queryLabels[s.n(len(queryLabels))])
		for k := s.width(); k > 0; k-- {
			b.WriteString("[")
			if s.n(3) == 0 {
				b.WriteString(".//")
			}
			b.WriteString(queryLabels[s.n(len(queryLabels))])
			if s.n(3) == 0 {
				b.WriteString([]string{"/", "//"}[s.n(2)] + queryLabels[s.n(len(queryLabels))])
			}
			if s.n(4) == 0 {
				fmt.Fprintf(&b, "=%q", values[s.n(len(values))])
			}
			b.WriteString("]")
		}
	}
	return b.String()
}

// queryFrom renders a twig that embeds in doc, so it has at least one
// answer while doc lives: a path down from the root or from a node below
// it, steps that may skip a level with //, and predicates naming a child,
// a grandchild or a child's text.
func (s *script) queryFrom(doc *xmltree.Node) string {
	var b strings.Builder
	n, axis := doc, "/"
	for d := s.n(3); d > 0; d-- {
		kids := elements(n)
		if len(kids) == 0 {
			break
		}
		n, axis = kids[s.n(len(kids))], "//"
	}
	if s.n(2) == 0 {
		axis = "//"
	}
	for {
		b.WriteString(axis + n.Label)
		kids := elements(n)
		for k := s.width(); k > 0 && len(kids) > 0; k-- {
			c := kids[s.n(len(kids))]
			switch grand, text := elements(c), textOf(c); {
			case text != "" && s.n(2) == 0:
				fmt.Fprintf(&b, "[%s=%q]", c.Label, text)
			case len(grand) > 0 && s.n(2) == 0:
				g := grand[s.n(len(grand))]
				fmt.Fprintf(&b, "[%s]", []string{c.Label + "/", ".//", c.Label + "//"}[s.n(3)]+g.Label)
			default:
				fmt.Fprintf(&b, "[%s]", c.Label)
			}
		}
		if len(kids) == 0 || s.n(3) == 0 {
			return b.String()
		}
		n, axis = kids[s.n(len(kids))], "/"
		if grand := elements(n); len(grand) > 0 && s.n(3) == 0 {
			n, axis = grand[s.n(len(grand))], "//"
		}
	}
}

// maxWhole bounds the nodes of a document queryWhole spells: a query of
// more predicates than the parser's limit, or of more nodes than the NoK
// matcher's, is never run.
const maxWhole = 32

// queryWhole spells doc's entire structure as one twig — every element a
// step, every text a [.="v"] predicate, as in
// /inproceedings[author][title[i]] — with each node's children rotated by
// the script, so the query numbers its vertices in another order than the
// document does: the pattern equal to a whole document, which DESIGN.md
// "Failure 3" lost to rounding. A document larger than maxWhole gets a
// path from its root instead.
func (s *script) queryWhole(doc *xmltree.Node) string {
	if size(doc) > maxWhole {
		return s.queryFrom(doc)
	}
	var b strings.Builder
	b.WriteString([]string{"/", "//"}[s.n(2)])
	s.spell(&b, doc)
	return b.String()
}

func (s *script) spell(b *strings.Builder, n *xmltree.Node) {
	b.WriteString(n.Label)
	kids := n.Children
	if len(kids) > 1 {
		r := s.n(len(kids))
		kids = append(slices.Clone(kids[r:]), kids[:r]...)
	}
	for _, c := range kids {
		b.WriteString("[")
		if c.IsText() {
			fmt.Fprintf(b, ".=%q", c.Value)
		} else {
			s.spell(b, c)
		}
		b.WriteString("]")
	}
}

// size returns the nodes of the tree at n, text nodes included.
func size(n *xmltree.Node) int {
	k := 1
	for _, c := range n.Children {
		k += size(c)
	}
	return k
}

// elements returns the element children of n.
func elements(n *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range n.Children {
		if !c.IsText() {
			out = append(out, c)
		}
	}
	return out
}

// textOf returns the value of n's first text child, "" when it has none.
func textOf(n *xmltree.Node) string {
	for _, c := range n.Children {
		if c.IsText() {
			return c.Value
		}
	}
	return ""
}

const (
	shards   = 2
	maxViews = 3
	maxSteps = 64
)

// pinned is an open View of one shard and the reference it must keep
// answering: the documents as they were when it was pinned.
type pinned struct {
	shard int
	v     *fix.View
	docs  *oracle.Docs
}

// specs are the indexes a script's collection may build: one unit a
// document, or one an element three levels deep, each with value hashing
// off and on. The script's first byte picks one.
var specs = []collection.Spec{
	{Name: "ops", Shards: shards},
	{Name: "ops", Shards: shards, Values: true},
	{Name: "ops", Shards: shards, DepthLimit: 3},
	{Name: "ops", Shards: shards, DepthLimit: 3, Values: true},
}

// run is one operation sequence against a collection on disk.
type run struct {
	t     *testing.T
	ctx   context.Context
	dir   string
	spec  collection.Spec
	gen   int // directories the collection has lived in; a reopen moves it
	c     *collection.Collection
	model oracle.Docs
	trees map[uint64]*xmltree.Node // the documents, for queries that embed in one
	views []pinned
	texts []string
	twigs []*xpath.QNode // texts parsed, once: the reference works out a document's answer to a tree once
	log   []string
}

func (r *run) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s\nafter:\n  %s", fmt.Sprintf(format, args...), strings.Join(r.log, "\n  "))
}

// home is the collection's directory.
func (r *run) home() string { return filepath.Join(r.dir, fmt.Sprint(r.gen)) }

func (r *run) open() {
	var err error
	r.c, err = collection.Create(r.ctx, r.home(), r.spec, collection.Options{})
	if err != nil {
		r.t.Fatal(err)
	}
}

// marshal returns a document's text and the tree the reference holds:
// the text parsed back, in which adjacent text children have become one,
// as they do in the database.
func (r *run) marshal(d *xmltree.Node) (string, *xmltree.Node) {
	text := xmltree.MarshalString(d)
	n, err := xmltree.ParseString(text)
	if err != nil {
		r.fatalf("parsing %s: %v", text, err)
	}
	return text, n
}

func (r *run) add(docs ...*xmltree.Node) {
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i], docs[i] = r.marshal(d)
	}
	ids, err := r.c.AddBatch(r.ctx, texts)
	if err != nil {
		r.fatalf("adding %d documents: %v", len(docs), err)
	}
	for i, id := range ids {
		r.added(id, docs[i])
	}
	r.log = append(r.log, fmt.Sprintf("add %v", ids))
}

func (r *run) added(id uint64, doc *xmltree.Node) {
	r.model.Add(id, doc)
	r.trees[id] = doc
}

// newQuery returns, while a document lives, a random text, one that
// embeds in a live document or one that spells a live document whole,
// each a third of the time; a random text otherwise.
func (r *run) newQuery(s *script) string {
	live := r.model.Live()
	if len(live) == 0 {
		return s.query()
	}
	switch s.n(3) {
	case 0:
		return s.query()
	case 1:
		return s.queryFrom(r.trees[live[s.n(len(live))]])
	default:
		return s.queryWhole(r.trees[live[s.n(len(live))]])
	}
}

// setQuery makes text the i'th query text the checks run.
func (r *run) setQuery(i int, text string) {
	r.texts[i], r.twigs[i] = text, xpath.MustParse(text).Tree()
	r.log = append(r.log, fmt.Sprintf("query %d: %s", i, text))
}

// apply submits one mixed request: new documents around a delete of a
// live one.
func (r *run) apply(s *script) {
	var ops []collection.Op
	var docs []*xmltree.Node
	var del uint64
	live := r.model.Live()
	for i := s.n(3); i >= 0; i-- {
		if i == 1 && len(live) > 0 {
			del = live[s.n(len(live))]
			ops = append(ops, collection.DeleteOp(del))
			docs = append(docs, nil)
			continue
		}
		text, d := r.marshal(s.doc(3))
		op, err := r.c.AddOp(text)
		if err != nil {
			r.fatalf("AddOp: %v", err)
		}
		ops, docs = append(ops, op), append(docs, d)
	}
	ids, err := r.c.Apply(r.ctx, ops)
	if err != nil {
		r.fatalf("Apply of %d operations: %v", len(ops), err)
	}
	for i, id := range ids {
		if docs[i] == nil {
			r.model.Delete(id)
		} else {
			r.added(id, docs[i])
		}
	}
	r.log = append(r.log, fmt.Sprintf("apply %v (delete %d)", ids, del))
}

func (r *run) delete(s *script) {
	live := r.model.Live()
	if len(live) == 0 {
		return
	}
	id := live[s.n(len(live))]
	if err := r.c.Delete(r.ctx, id); err != nil {
		r.fatalf("delete %d: %v", id, err)
	}
	r.model.Delete(id)
	r.log = append(r.log, fmt.Sprintf("delete %d", id))
}

// pin opens a View of the shard, closing the oldest when maxViews are
// open.
func (r *run) pin(shard int) {
	if len(r.views) == maxViews {
		r.unpin(0)
	}
	r.views = append(r.views, pinned{shard: shard, v: r.c.Shard(shard).DB.View(), docs: r.model.Snapshot()})
	r.log = append(r.log, fmt.Sprintf("pin shard %d", shard))
}

func (r *run) unpin(i int) {
	if err := r.views[i].v.Close(); err != nil {
		r.fatalf("closing a view: %v", err)
	}
	r.views = slices.Delete(r.views, i, i+1)
	r.log = append(r.log, fmt.Sprintf("unpin view %d", i))
}

// maxRegrowHeap bounds the heaps regrow doubles: past it a sequence's
// documents would make the reference matcher slow.
const maxRegrowHeap = 32 << 10

// regrow pins a View of one shard and adds a document at least as large
// as the shard's heap and a page: the mapping reserves twice the heap it
// was made over, and at least the page the test lowers the floor to, so
// the append outgrows it, and the View goes on reading the region it was
// frozen over while new generations read the new one.
func (r *run) regrow(s *script) {
	shard := s.n(shards)
	info, err := os.Stat(filepath.Join(collection.ShardDir(r.home(), shard), "data.heap"))
	if err != nil {
		r.fatalf("sizing shard %d's heap: %v", shard, err)
	}
	if info.Size() > maxRegrowHeap {
		return
	}
	var root string
	for _, l := range queryLabels {
		if collection.ShardForLabel(l, shards) == shard {
			root = l
		}
	}
	big := xmltree.Elem(root)
	// An element with a one-letter text child encodes in 5 bytes; the
	// reservation is at least the one page the test lowered it to.
	for i := int64(0); i < max(info.Size(), int64(os.Getpagesize()))/5+1; i++ {
		big.Children = append(big.Children, xmltree.Elem(docLabels[i%3], xmltree.Text(values[i%2])))
	}
	r.pin(shard)
	r.log = append(r.log, fmt.Sprintf("regrow shard %d's %d-byte heap", shard, info.Size()))
	r.add(big)
}

// crash copies the collection's files as they are — every operation so
// far was acknowledged, so each is in a WAL or a checkpoint — closes the
// collection without a checkpoint and opens the copy.
func (r *run) crash() {
	for len(r.views) > 0 {
		r.unpin(0)
	}
	from := r.home()
	r.gen++
	to := r.home()
	if err := copyDir(from, to); err != nil {
		r.fatalf("copying the collection: %v", err)
	}
	if err := r.c.Close(); err != nil {
		r.fatalf("closing the collection: %v", err)
	}
	c, err := collection.Open(to, collection.Options{})
	if err != nil {
		r.fatalf("reopening the collection: %v", err)
	}
	r.c = c
	r.log = append(r.log, "crash and reopen")
}

func copyDir(from, to string) error {
	return filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// onShard keeps the documents of one shard.
func onShard(shard int) func(uint64) bool {
	return func(id uint64) bool {
		s, _ := collection.SplitID(id)
		return s == shard
	}
}

// recs returns the shard-local record numbers of global IDs.
func recs(ids []uint64) []uint32 {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		_, out[i] = collection.SplitID(id)
	}
	return out
}

// checkDB asserts that every evaluator of one shard's state — probe and
// refine, the scan, the documents pass and Exists, on the latest
// generation or a pinned View — answers text as the reference does.
func (r *run) checkDB(what, text string, tree *xpath.QNode, want *oracle.Docs, shard int,
	query func(string, ...fix.QueryOption) (fix.Result, error),
	documents func(string, ...fix.QueryOption) ([]uint32, error),
	exists func(string, ...fix.QueryOption) (bool, error),
) {
	r.t.Helper()
	count, matched := want.Answer(tree, onShard(shard))
	for _, opts := range [][]fix.QueryOption{nil, {fix.ScanOnly()}} {
		res, err := query(text, opts...)
		if err != nil || res.Count != count {
			r.fatalf("%s, shard %d: Query(%s) with %d options = %d, %v; reference %d", what, shard, text, len(opts), res.Count, err, count)
		}
		docs, err := documents(text, opts...)
		if err != nil || !slices.Equal(docs, recs(matched)) {
			r.fatalf("%s, shard %d: QueryDocuments(%s) with %d options = %v, %v; reference %v", what, shard, text, len(opts), docs, err, recs(matched))
		}
	}
	if ok, err := exists(text); err != nil || ok != (len(matched) > 0) {
		r.fatalf("%s, shard %d: Exists(%s) = %v, %v; reference %v", what, shard, text, ok, err, len(matched) > 0)
	}
}

// check asserts every evaluator agrees with the reference on every query
// text: each shard's latest generation, each pinned View against the
// documents of its pin, and the collection's scatter-gather on one CPU
// and on two.
func (r *run) check() {
	r.t.Helper()
	for q, text := range r.texts {
		tree := r.twigs[q]
		for i := 0; i < shards; i++ {
			db := r.c.Shard(i).DB
			r.checkDB("latest", text, tree, &r.model, i, db.Query, db.QueryDocuments, db.Exists)
		}
		for _, p := range r.views {
			r.checkDB("pinned view", text, tree, p.docs, p.shard, p.v.Query, p.v.QueryDocuments, p.v.Exists)
		}
		count, matched := r.model.Answer(tree, nil)
		slices.Sort(matched) // the collection's order: by shard, then record
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			res, err := r.c.Query(r.ctx, text, collection.QueryOpts{WithDocuments: true})
			runtime.GOMAXPROCS(prev)
			if err != nil || res.Partial || res.Count != count || !slices.Equal(res.Documents, matched) {
				r.fatalf("collection query %s at GOMAXPROCS %d = %d documents %v (partial %v), %v; reference %d documents %v",
					text, procs, res.Count, res.Documents, res.Partial, err, count, matched)
			}
		}
	}
}

// rebuildDegraded rebuilds each shard's index that cannot be
// checkpointed, as a maintainer does before it checkpoints: under value
// hashing, a document that brings a new element label leaves it degraded.
func (r *run) rebuildDegraded() {
	for i := 0; i < shards; i++ {
		db := r.c.Shard(i).DB
		if db.IndexHealth() == nil {
			continue
		}
		if err := db.RebuildIndex(); err != nil {
			r.fatalf("rebuilding shard %d's degraded index: %v", i, err)
		}
		r.log = append(r.log, fmt.Sprintf("rebuild degraded shard %d", i))
	}
}

// runScript plays one operation sequence, at most maxSteps operations
// long, checking after every step.
func runScript(t *testing.T, b []byte) {
	t.Cleanup(storage.SetMapReserve(int64(os.Getpagesize())))
	s := &script{b: b}
	r := &run{t: t, ctx: context.Background(), dir: t.TempDir(), spec: specs[s.n(len(specs))], trees: map[uint64]*xmltree.Node{}}
	r.open()
	r.log = append(r.log, fmt.Sprintf("spec %+v", r.spec))
	defer func() {
		for _, p := range r.views {
			_ = p.v.Close()
		}
		_ = r.c.Close()
	}()
	r.texts, r.twigs = make([]string, 4), make([]*xpath.QNode, 4)
	for i := range r.texts {
		r.setQuery(i, s.query())
	}
	for step := 0; step < maxSteps && !s.done(); step++ {
		switch op := s.n(14); {
		case op < 3:
			docs := make([]*xmltree.Node, 1+s.n(3))
			for i := range docs {
				docs[i] = s.doc(3)
			}
			r.add(docs...)
		case op == 3:
			r.delete(s)
		case op == 4:
			r.apply(s)
		case op == 5:
			r.pin(s.n(shards))
		case op == 6:
			if len(r.views) > 0 {
				r.unpin(s.n(len(r.views)))
			}
		case op == 7:
			r.rebuildDegraded()
			if err := r.c.Save(); err != nil {
				r.fatalf("checkpoint: %v", err)
			}
			r.log = append(r.log, "checkpoint")
		case op == 8:
			r.crash()
		case op == 9:
			r.regrow(s)
		case op == 10:
			shard := s.n(shards)
			if err := r.c.Shard(shard).DB.RebuildIndex(); err != nil {
				r.fatalf("rebuilding shard %d's index: %v", shard, err)
			}
			r.log = append(r.log, fmt.Sprintf("rebuild shard %d", shard))
		case op == 11:
			shard := s.n(shards)
			if rep, err := r.c.Shard(shard).DB.Scrub(fix.ScrubConfig{Pause: -1}); err != nil || rep.Damaged() {
				r.fatalf("scrubbing shard %d: %+v, %v", shard, rep, err)
			}
			r.log = append(r.log, fmt.Sprintf("scrub shard %d", shard))
		default:
			r.setQuery(s.n(len(r.texts)), r.newQuery(s))
		}
		r.check()
	}
}

// TestOpSequence plays operation sequences from a seeded generator: each
// seed draws the bytes of a script, so a failing seed replays exactly.
func TestOpSequence(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			b := make([]byte, 1024)
			rand.New(rand.NewSource(seed)).Read(b)
			runScript(t, b)
		})
	}
}

// FuzzOpSequence plays the fuzzer's inputs as operation sequences over
// whole-document and depth-limited indexes, with and without value
// hashing: adds, deletes, mixed requests, pinned Views, checkpoints,
// crashes and reopens, mapping regrows, index rebuilds, scrubs and new
// query texts, checking every evaluator against the reference after every
// step. go test replays the committed corpus
// under testdata/fuzz/FuzzOpSequence.
func FuzzOpSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte("\x00\x05\x09\x00\x08\x03\x04\x07\x06\x09\x01"))
	f.Fuzz(runScript)
}

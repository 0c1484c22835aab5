package collection

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// labelFor returns a root label that routes to the wanted shard under
// the given shard count, so tests don't hard-code hash values.
func labelFor(t *testing.T, shard, nshards int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		l := fmt.Sprintf("lbl%d", i)
		if ShardForLabel(l, nshards) == shard {
			return l
		}
	}
	t.Fatalf("no label found for shard %d/%d", shard, nshards)
	return ""
}

// doc builds a tiny document rooted at label with n item children.
func doc(label string, n int) string {
	s := "<" + label + ">"
	for i := 0; i < n; i++ {
		s += "<item><name>x</name></item>"
	}
	return s + "</" + label + ">"
}

// newTestCollection creates a collection in a temp dir and registers
// cleanup.
func newTestCollection(t *testing.T, spec Spec, opts Options) *Collection {
	t.Helper()
	c, err := Create(context.Background(), filepath.Join(t.TempDir(), spec.Name), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestGlobalIDRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shard int
		rec   uint32
	}{{0, 0}, {0, 7}, {3, 0}, {255, 1 << 31}, {17, 42}} {
		id := GlobalID(tc.shard, tc.rec)
		s, r := SplitID(id)
		if s != tc.shard || r != tc.rec {
			t.Errorf("SplitID(GlobalID(%d, %d)) = (%d, %d)", tc.shard, tc.rec, s, r)
		}
	}
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "books", "tenant-7", "A_b-9"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "a/b", "a b", "a.b", "ü", string(long)} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("ValidateName(%q) passed", bad)
		}
	}
}

// TestRoutingAndMergeOrder verifies document placement follows
// ShardForLabel, targeted queries confine to one shard, scattered
// queries cover all shards in ascending order, and global IDs name the
// right shard.
func TestRoutingAndMergeOrder(t *testing.T) {
	const nshards = 4
	c := newTestCollection(t, Spec{Name: "route", Shards: nshards}, Options{})
	ctx := context.Background()

	var docs []string
	var wantShard []int
	for sh := 0; sh < nshards; sh++ {
		l := labelFor(t, sh, nshards)
		for i := 0; i < sh+1; i++ { // shard i holds i+1 docs
			docs = append(docs, doc(l, 2))
			wantShard = append(wantShard, sh)
		}
	}
	ids, err := c.AddBatch(ctx, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(docs) {
		t.Fatalf("AddBatch returned %d ids for %d docs", len(ids), len(docs))
	}
	for i, id := range ids {
		if sh, _ := SplitID(id); sh != wantShard[i] {
			t.Errorf("doc %d placed in shard %d, want %d", i, sh, wantShard[i])
		}
	}

	// Scattered query: every shard probed, ascending order, merged count.
	res, err := c.Query(ctx, "//item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Targeted {
		t.Error("descendant-axis query reported targeted")
	}
	if len(res.Shards) != nshards {
		t.Fatalf("scatter probed %d shards, want %d", len(res.Shards), nshards)
	}
	wantTotal := 0
	for i, r := range res.Shards {
		if r.Shard != i {
			t.Errorf("merge order: position %d holds shard %d", i, r.Shard)
		}
		if want := (i + 1) * 2; r.Count != want {
			t.Errorf("shard %d count = %d, want %d", i, r.Count, want)
		}
		wantTotal += (i + 1) * 2
	}
	if res.Count != wantTotal || res.Partial || res.Degraded {
		t.Errorf("scatter result = %+v, want count %d, no partial/degraded", res, wantTotal)
	}

	// Targeted query: /label pins the probe to one shard.
	l2 := labelFor(t, 2, nshards)
	res, err = c.Query(ctx, "/"+l2+"/item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targeted || len(res.Shards) != 1 || res.Shards[0].Shard != 2 {
		t.Fatalf("targeted query result = %+v, want single probe of shard 2", res)
	}
	if res.Count != 3*2 {
		t.Errorf("targeted count = %d, want 6", res.Count)
	}

	// Global IDs resolve back to their documents.
	got, err := c.Document(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != docs[0] {
		t.Errorf("Document(%d) = %q, want %q", ids[0], got, docs[0])
	}

	// WithDocuments returns global IDs in shard order.
	res, err = c.Query(ctx, "//item", QueryOpts{WithDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) != len(docs) {
		t.Fatalf("WithDocuments returned %d ids, want %d", len(res.Documents), len(docs))
	}
	lastShard := -1
	for _, id := range res.Documents {
		sh, _ := SplitID(id)
		if sh < lastShard {
			t.Fatalf("documents not in shard order: %v", res.Documents)
		}
		lastShard = sh
	}
}

// TestEmptyCollection covers the zero-document edge: queries succeed
// with zero counts, never partial.
func TestEmptyCollection(t *testing.T) {
	c := newTestCollection(t, Spec{Name: "empty", Shards: 3}, Options{})
	res, err := c.Query(context.Background(), "//anything", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Partial || res.Degraded || len(res.Shards) != 3 {
		t.Errorf("empty-collection query = %+v, want 0 count over 3 clean shards", res)
	}
	if st := c.Stats(); st.Documents != 0 || len(st.Shards) != 3 {
		t.Errorf("empty-collection stats = %+v", st)
	}
}

// TestBadQueryFailsWhole: a malformed text fails the whole query with
// ErrBadQuery, whether the router scatters it (no first step to read) or
// targets one shard (a good first step, malformed after it).
func TestBadQueryFailsWhole(t *testing.T) {
	c := newTestCollection(t, Spec{Name: "bad", Shards: 2}, Options{})
	for _, q := range []string{"///", "/a[", "/a]"} {
		if _, err := c.Query(context.Background(), q, QueryOpts{}); !errors.Is(err, fix.ErrBadQuery) {
			t.Errorf("Query(%s) = %v, want ErrBadQuery", q, err)
		}
	}
}

// TestQuerySeesNewLabels: a text queried before any document carries its
// labels counts 0 on every shard; after a batch brings them, the same
// text — targeted and scattered — finds the documents.
func TestQuerySeesNewLabels(t *testing.T) {
	const nshards = 3
	c := newTestCollection(t, Spec{Name: "labels", Shards: nshards}, Options{})
	ctx := context.Background()
	if _, err := c.AddBatch(ctx, []string{doc(labelFor(t, 0, nshards), 1)}); err != nil {
		t.Fatal(err)
	}
	root := labelFor(t, 1, nshards)
	texts := map[string]bool{"/" + root + "[fresh]": true, "//" + root + "[fresh]": false}
	for text := range texts {
		if res, err := c.Query(ctx, text, QueryOpts{}); err != nil || res.Count != 0 {
			t.Fatalf("%s before the labels exist = %+v, %v", text, res, err)
		}
	}
	if _, err := c.AddBatch(ctx, []string{"<" + root + "><fresh/></" + root + ">"}); err != nil {
		t.Fatal(err)
	}
	for text, targeted := range texts {
		res, err := c.Query(ctx, text, QueryOpts{})
		if err != nil || res.Count != 1 || res.Targeted != targeted {
			t.Errorf("%s after the add = %+v, %v; want 1 result, targeted %t", text, res, err, targeted)
		}
	}
}

func TestDeleteByGlobalID(t *testing.T) {
	const nshards = 3
	c := newTestCollection(t, Spec{Name: "del", Shards: nshards}, Options{})
	ctx := context.Background()
	l := labelFor(t, 1, nshards)
	ids, err := c.AddBatch(ctx, []string{doc(l, 1), doc(l, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, "/"+l+"/item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("count after delete = %d, want 1", res.Count)
	}
	// Unknown shard and unknown record both wrap ErrUnknownDocument.
	if err := c.Delete(ctx, GlobalID(99, 0)); !errors.Is(err, fix.ErrUnknownDocument) {
		t.Errorf("Delete(unknown shard) = %v, want ErrUnknownDocument", err)
	}
	if err := c.Delete(ctx, GlobalID(0, 12345)); !errors.Is(err, fix.ErrUnknownDocument) {
		t.Errorf("Delete(unknown rec) = %v, want ErrUnknownDocument", err)
	}
}

// plantBadChunk opens the closed shard database in dir at the index
// layer, puts a chunk whose value does not decode (an over-long uvarint)
// in label's partition at σ = +Inf, where every probe that reaches the
// partition reads it, and saves the index.
func plantBadChunk(t *testing.T, dir, label string) {
	t.Helper()
	df, err := os.Open(filepath.Join(dir, "labels.dict"))
	if err != nil {
		t.Fatal(err)
	}
	dict, err := xmltree.ReadDict(df)
	_ = df.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := storage.Open(filepath.Join(dir, "data.heap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := storage.OpenStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Open(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := dict.Lookup(label)
	if !ok {
		t.Fatalf("no label %q", label)
	}
	key := make([]byte, 20) // label, σ in order-preserving form, first pointer
	binary.BigEndian.PutUint32(key, id)
	binary.BigEndian.PutUint64(key[4:], math.Float64bits(math.Inf(1))|1<<63)
	if err := ix.BTree().Put(key, []byte{0x82, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedShardAnswersExactly damages one shard's B-tree on disk,
// once with flipped page bytes, which Open detects, and once with a chunk
// whose value does not decode behind valid checksums, which only a probe
// finds: the collection must keep answering exactly (that shard scans,
// its documents too), flag the result Degraded but NOT Partial, and
// rebuilding the shard's index must restore full health.
func TestDegradedShardAnswersExactly(t *testing.T) {
	for _, damage := range []struct {
		name string
		do   func(t *testing.T, shardDir string)
	}{
		{"flipped page bytes", flipPageBytes},
		{"a chunk only a probe finds", func(t *testing.T, shardDir string) { plantBadChunk(t, shardDir, "item") }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			const nshards = 2
			dir := filepath.Join(t.TempDir(), "deg")
			ctx := context.Background()
			c, err := Create(ctx, dir, Spec{Name: "deg", Shards: nshards}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var docs []string
			for sh := 0; sh < nshards; sh++ {
				l := labelFor(t, sh, nshards)
				for i := 0; i < 8; i++ {
					docs = append(docs, doc(l, 3))
				}
			}
			ids, err := c.AddBatch(ctx, docs)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(ids)
			if err := c.Save(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			damage.do(t, filepath.Join(dir, "shard-001"))

			c, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			res, err := c.Query(ctx, "//item", QueryOpts{WithDocuments: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != len(docs)*3 || !slices.Equal(res.Documents, ids) {
				t.Errorf("degraded count = %d, documents %v; want %d and %v (degraded shards must answer exactly)", res.Count, res.Documents, len(docs)*3, ids)
			}
			if !res.Degraded {
				t.Error("result over a corrupt shard not flagged Degraded")
			}
			if res.Partial {
				t.Errorf("degraded-but-exact result flagged Partial: %+v", res.Shards)
			}
			if !res.Shards[1].ScanFallback {
				t.Errorf("shard 1 row = %+v, want ScanFallback", res.Shards[1])
			}
			if res.Shards[0].ScanFallback {
				t.Error("healthy shard 0 reported scan fallback")
			}

			health := c.Health()
			if health[1].Healthy || health[1].Cause == "" {
				t.Errorf("shard 1 health = %+v, want unhealthy with cause", health[1])
			}
			if !health[0].Healthy {
				t.Errorf("shard 0 health = %+v, want healthy", health[0])
			}

			if err := c.Shard(1).DB.RebuildIndexCtx(ctx); err != nil {
				t.Fatal(err)
			}
			if h := c.Health(); !h[1].Healthy {
				t.Errorf("shard 1 still unhealthy after rebuild: %+v", h[1])
			}
			res, err = c.Query(ctx, "//item", QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Degraded || res.Count != len(docs)*3 {
				t.Errorf("post-rebuild result = %+v, want clean count %d", res, len(docs)*3)
			}
		})
	}
}

// flipPageBytes flips a byte of every page but the header page of the
// closed shard database's B-tree in dir.
func flipPageBytes(t *testing.T, dir string) {
	t.Helper()
	btree := filepath.Join(dir, "fix.btree")
	buf, err := os.ReadFile(btree)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	if len(buf) <= pageSize+100 {
		t.Fatalf("btree only %d bytes; corpus too small to corrupt", len(buf))
	}
	for off := pageSize + 100; off < len(buf); off += pageSize {
		buf[off] ^= 0xFF
	}
	if err := os.WriteFile(btree, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// noMaintainers fails the test if any shard of c runs a maintainer.
func noMaintainers(t *testing.T, what string, c *Collection) {
	t.Helper()
	for i := 0; i < c.NumShards(); i++ {
		if c.Shard(i).Mnt != nil {
			t.Errorf("%s with zero Options started a maintainer on shard %d", what, i)
		}
	}
}

// TestReopenReplaysShards verifies acknowledged ingest survives an
// unsaved close: each shard's WAL replays on Open. It is also the
// library-use check: Create and Open with zero Options start no
// maintenance loop (fixindex and bulk loaders must not be checkpointed
// behind their backs).
func TestReopenReplaysShards(t *testing.T) {
	const nshards = 2
	dir := filepath.Join(t.TempDir(), "re")
	ctx := context.Background()
	c, err := Create(ctx, dir, Spec{Name: "re", Shards: nshards}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for sh := 0; sh < nshards; sh++ {
		docs = append(docs, doc(labelFor(t, sh, nshards), 1))
	}
	if _, err := c.AddBatch(ctx, docs); err != nil {
		t.Fatal(err)
	}
	noMaintainers(t, "Create", c)
	// Close WITHOUT Save: the shards' WALs are the only durability.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	noMaintainers(t, "Open", c)
	res, err := c.Query(ctx, "//item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != len(docs) {
		t.Errorf("count after reopen = %d, want %d", res.Count, len(docs))
	}
}

// TestApplyMixedSubmission: a request's operations reach every touched
// shard as one submission — one group commit and one publish each — in
// request order, so a delete may name a document the request itself
// added; the global IDs come back per operation, in request order.
func TestApplyMixedSubmission(t *testing.T) {
	const nshards = 4
	c := newTestCollection(t, Spec{Name: "mixed", Shards: nshards}, Options{})
	ctx := context.Background()
	la, lb := labelFor(t, 0, nshards), labelFor(t, 1, nshards)
	old, err := c.AddBatch(ctx, []string{doc(la, 1), doc(lb, 1)})
	if err != nil {
		t.Fatal(err)
	}
	add := func(label string, items int) Op {
		t.Helper()
		op, err := c.AddOp(doc(label, items))
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	ops := []Op{
		add(la, 2), DeleteOp(old[0]), add(lb, 2),
		add(la, 3), DeleteOp(GlobalID(0, 2)), // the add before it, record 2 of shard 0 by then
		add(lb, 3), DeleteOp(old[1]),
	}
	want := []uint64{GlobalID(0, 1), old[0], GlobalID(1, 1), GlobalID(0, 2), GlobalID(0, 2), GlobalID(1, 2), old[1]}
	gens := make([]uint64, nshards)
	for i := range gens {
		gens[i] = c.Shard(i).DB.GenerationID()
	}
	before := c.Shard(0).DB.Metrics()
	ids, err := c.Apply(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	after := c.Shard(0).DB.Metrics() // the ingest counters are the process's
	if b, f := after.IngestBatches-before.IngestBatches, after.IngestFsyncs-before.IngestFsyncs; b != 2 || f != 2 {
		t.Fatalf("%d group commits and %d fsyncs for two touched shards, want 2 and 2", b, f)
	}
	for i, g := range gens {
		if got, want := c.Shard(i).DB.GenerationID()-g, map[bool]uint64{true: 1}[i < 2]; got != want {
			t.Errorf("shard %d published %d generations, want %d", i, got, want)
		}
	}
	for expr, want := range map[string]int{"/" + la: 1, "/" + lb: 2, "/" + la + "/item": 2, "//item": 7} {
		res, err := c.Query(ctx, expr, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("%s counts %d, want %d", expr, res.Count, want)
		}
	}

	// An ID of a shard the collection does not have fails the request
	// before any shard is submitted; a record its shard never assigned
	// fails that shard's submission whole.
	docs := c.NumDocuments()
	if _, err := c.Apply(ctx, []Op{add(la, 1), DeleteOp(GlobalID(nshards, 0))}); !errors.Is(err, fix.ErrUnknownDocument) {
		t.Fatalf("delete on a foreign shard = %v, want ErrUnknownDocument", err)
	}
	if _, err := c.Apply(ctx, []Op{add(lb, 1), DeleteOp(GlobalID(1, 99)), add(lb, 1)}); !errors.Is(err, fix.ErrUnknownDocument) {
		t.Fatalf("delete of an unassigned record = %v, want ErrUnknownDocument", err)
	}
	if got := c.NumDocuments(); got != docs {
		t.Fatalf("the rejected requests left documents behind: %d -> %d", docs, got)
	}
	if ids, err := c.Apply(ctx, nil); err != nil || ids != nil {
		t.Fatalf("empty request = %v, %v", ids, err)
	}
}

// deniedManifest is a filesystem on which collection.json exists but
// cannot be opened.
type deniedManifest struct{ storage.FS }

func (d deniedManifest) Open(path string) (storage.File, error) {
	if filepath.Base(path) == ManifestName {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrPermission}
	}
	return d.FS.Open(path)
}

// TestCreateRefusesOverACollection: Create over an existing collection
// fails and leaves every shard's heap as it was, also when the manifest
// cannot be opened, since creating a shard truncates its heap.
func TestCreateRefusesOverACollection(t *testing.T) {
	const nshards = 2
	dir := filepath.Join(t.TempDir(), "cr")
	ctx := context.Background()
	c, err := Create(ctx, dir, Spec{Name: "cr", Shards: nshards}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for sh := 0; sh < nshards; sh++ {
		docs = append(docs, doc(labelFor(t, sh, nshards), 1))
	}
	if _, err := c.AddBatch(ctx, docs); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	heaps := func() (sizes []int64) {
		for sh := 0; sh < nshards; sh++ {
			info, err := os.Stat(filepath.Join(ShardDir(dir, sh), "data.heap"))
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, info.Size())
		}
		return sizes
	}
	before := heaps()
	if _, err := Create(ctx, dir, Spec{Name: "cr", Shards: nshards}, Options{}); err == nil {
		t.Error("Create over a collection succeeded")
	}
	real := storage.Disk
	t.Cleanup(func() { storage.Disk = real })
	storage.Disk = deniedManifest{real}
	if _, err := Create(ctx, dir, Spec{Name: "cr", Shards: nshards}, Options{}); !errors.Is(err, fs.ErrPermission) {
		t.Errorf("Create over a collection whose manifest cannot be opened = %v, want ErrPermission", err)
	}
	storage.Disk = real
	if after := heaps(); !slices.Equal(after, before) {
		t.Errorf("the shards' heaps went from %v to %v bytes", before, after)
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// faultFS routes the index's own file I/O through pl, so a test can
// crash Build/Save at any chosen write operation.
func faultFS(pl *storage.FaultPlan) *indexFS {
	return &indexFS{
		create: func(path string) (storage.File, error) {
			f, err := storage.Create(path)
			if err != nil {
				return nil, err
			}
			return pl.Wrap(f), nil
		},
		open: func(path string) (storage.File, error) {
			f, err := storage.Open(path)
			if err != nil {
				return nil, err
			}
			return pl.Wrap(f), nil
		},
	}
}

// ioEvent is one write (at off) or sync the index made on one of its files.
type ioEvent struct {
	file string // base name
	sync bool
	off  int64
}

// ioLog records, in order, the writes and syncs that go through the file
// seam it wraps: who wrote which file, and on which side of which fsync.
type ioLog struct {
	mu     sync.Mutex
	events []ioEvent
}

func (l *ioLog) wrap(inner *indexFS) *indexFS {
	logged := func(open func(string) (storage.File, error)) func(string) (storage.File, error) {
		return func(path string) (storage.File, error) {
			f, err := open(path)
			if err != nil {
				return nil, err
			}
			return loggedFile{f, l, filepath.Base(path)}, nil
		}
	}
	return &indexFS{create: logged(inner.create), open: logged(inner.open)}
}

// since returns the events from the n-th on.
func (l *ioLog) since(n int) []ioEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ioEvent(nil), l.events[n:]...)
}

type loggedFile struct {
	storage.File
	log  *ioLog
	name string
}

func (f loggedFile) add(e ioEvent) {
	f.log.mu.Lock()
	defer f.log.mu.Unlock()
	f.log.events = append(f.log.events, e)
}

func (f loggedFile) WriteAt(p []byte, off int64) (int, error) {
	f.add(ioEvent{file: f.name, off: off})
	return f.File.WriteAt(p, off)
}

func (f loggedFile) Sync() error {
	f.add(ioEvent{file: f.name, sync: true})
	return f.File.Sync()
}

// checkOneFlush requires events to write fix.btree the way one Flush of a
// tree of the given size does and no other way: every page once, in order,
// then the fsync.
func checkOneFlush(t *testing.T, events []ioEvent, ix *Index, pageSize int64) {
	t.Helper()
	next := int64(0)
	for _, e := range events {
		switch {
		case e.file != "fix.btree":
		case e.sync && next == ix.bt.Size():
			next = -1
		case e.sync || e.off != next:
			t.Fatalf("fix.btree: event %+v with the file written up to %d of %d: not the one Flush of a build", e, next, ix.bt.Size())
		default:
			next += pageSize
		}
	}
	if next != -1 {
		t.Fatalf("fix.btree was written up to %d of %d and not synced", next, ix.bt.Size())
	}
}

func memStoreFromDocs(t *testing.T, docs []string) *storage.Store {
	t.Helper()
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("parsing doc %d: %v", i, err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatalf("appending doc %d: %v", i, err)
		}
	}
	return st
}

// oracleCounts answers the queries by full navigational scan — the
// ground truth every post-crash state must reproduce. Tombstoned
// records are not part of the collection, so the oracle skips them.
func oracleCounts(t *testing.T, st *storage.Store, queries []string) map[string]int {
	t.Helper()
	out := make(map[string]int, len(queries))
	for _, qs := range queries {
		nq, err := nok.Compile(xpath.MustParse(qs).Tree(), st.Dict())
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for rec := 0; rec < st.NumRecords(); rec++ {
			if st.IsDeleted(uint32(rec)) {
				continue
			}
			cur, err := st.Cursor(uint32(rec))
			if err != nil {
				t.Fatal(err)
			}
			total += nq.Count(cur, 0)
		}
		out[qs] = total
	}
	return out
}

func checkOracle(t *testing.T, ix *Index, oracle map[string]int, ctx string) {
	t.Helper()
	g := freeze(t, ix)
	for qs, want := range oracle {
		res, err := query(g, xpath.MustParse(qs))
		if err != nil {
			t.Fatalf("%s: query %s: %v", ctx, qs, err)
		}
		if res.Count != want {
			t.Errorf("%s: query %s = %d, oracle says %d", ctx, qs, res.Count, want)
		}
	}
}

// crashQueries stay within depth 2 so every index variant covers them.
var crashQueries = []string{
	"//title",
	"//author[email]",
	"//author[address]",
	"//article[author]",
}

// TestCrashPointRecovery drives Build+Save into a simulated crash at
// every write operation (plain and torn), then reopens the directory and
// requires one of exactly two outcomes: the commit never happened (no
// fix.meta, so the database layer would scan) or Open succeeds — replayed
// from the journal or degraded with a detected fault — and every query
// still matches the full-scan oracle. Whatever the size of the index —
// the last variant's has some two hundred pages — fix.btree stays empty
// until the build's one Flush writes every page once.
func TestCrashPointRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		copies int // of bibDocs
	}{
		{"unclustered", Options{}, 1},
		{"depth2", Options{DepthLimit: 2}, 1},
		{"values", Options{Values: true, Beta: 4}, 1},
		{"depth2 past the cache", Options{DepthLimit: 2, PageSize: 256}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var docs []string
			for i := 0; i < tc.copies; i++ {
				docs = append(docs, bibDocs...)
			}
			st := memStoreFromDocs(t, docs)
			oracle := oracleCounts(t, st, crashQueries)

			// Dry run to learn the deterministic write-op count.
			dry, log := &storage.FaultPlan{}, &ioLog{}
			opts := tc.opts
			opts.Dir = t.TempDir()
			opts.fs = log.wrap(faultFS(dry))
			ix, err := Build(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			pageSize := int64(btree.DefaultPageSize)
			if opts.PageSize != 0 {
				pageSize = int64(opts.PageSize)
			}
			checkOneFlush(t, log.since(0), ix, pageSize)
			if err := ix.Save(); err != nil {
				t.Fatal(err)
			}
			total := dry.Writes()
			if total < 4 {
				t.Fatalf("implausible write-op count %d", total)
			}

			for n := 1; n <= total; n++ {
				for _, torn := range []bool{false, true} {
					pl := &storage.FaultPlan{FailWrite: n, Torn: torn}
					o := tc.opts
					o.Dir = t.TempDir()
					o.fs = faultFS(pl)
					ix, err := Build(st, o)
					if err == nil {
						err = ix.Save()
					}
					if err == nil {
						t.Fatalf("write %d (torn=%t): expected an injected failure", n, torn)
					}
					if !errors.Is(err, storage.ErrInjected) {
						t.Fatalf("write %d (torn=%t): unexpected error: %v", n, torn, err)
					}

					// "Reboot": recover, then open whatever is on disk.
					if err := Recover(o.Dir); err != nil {
						t.Fatalf("write %d (torn=%t): recover: %v", n, torn, err)
					}
					if _, err := os.Stat(filepath.Join(o.Dir, "fix.meta")); os.IsNotExist(err) {
						// The commit never became durable: there is no
						// index, and the database layer scans. Correct by
						// construction.
						continue
					}
					re, err := Open(st, o.Dir)
					if err != nil {
						t.Fatalf("write %d (torn=%t): reopen: %v", n, torn, err)
					}
					checkOracle(t, re, oracle, re.opts.Dir)
					if re.Health() == nil {
						if err := re.Verify(); err != nil {
							t.Errorf("write %d (torn=%t): healthy index fails verify: %v", n, torn, err)
						}
					}
				}
			}
		})
	}
}

// wideDoc returns a document with 320 leaf elements of 320 labels: in an
// index of depth 1 each is an entry, and each lands in another part of the
// key space. mark is the text of the one child no other document has.
func wideDoc(mark string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<w><mark>%s</mark>", mark)
	for g := 0; g < 16; g++ {
		fmt.Fprintf(&b, "<g%d>", g)
		for l := 20 * g; l < 20*g+20; l++ {
			fmt.Fprintf(&b, "<l%d/>", l)
		}
		fmt.Fprintf(&b, "</g%d>", g)
	}
	return b.String() + "</w>"
}

// TestCrashDuringIncrementalSave crashes the Save that follows an
// incremental InsertDocument on an already-committed index: a small
// document into a one-page tree, and a wide one into a tree of some 250
// small pages packed full — a leaf per label or so — all of which it
// changes, most of them splitting, which is over 256 pages.
// Between the two Saves nothing may reach fix.btree, and inside the second
// nothing before the journal's fsync. Whatever the crash point, reopening
// must answer queries over the grown store correctly: either the journal
// replays the new commit, or the old index — whole, as its Save left it —
// is detected as stale and queries fall back to scanning.
func TestCrashDuringIncrementalSave(t *testing.T) {
	var wide []string
	for i := 0; i < 40; i++ {
		wide = append(wide, wideDoc(fmt.Sprint("base", i)))
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		base    []string
		newDoc  string
		queries []string
		dirtied int // pages the second Save must at least journal
	}{
		{"one page", Options{}, bibDocs,
			`<article><author><email>zz</email><address>q</address></author></article>`, crashQueries, 1},
		{"wide window", Options{DepthLimit: 1, PageSize: 256}, wide,
			wideDoc("zz"), []string{"//l7", "//l319", "//g3", "//w"}, 257},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The committed index is built once; every run works on a copy
			// of its directory, opened through fsys.
			base := tc.opts
			base.Dir = t.TempDir()
			if ix, err := Build(memStoreFromDocs(t, tc.base), base); err != nil {
				t.Fatal(err)
			} else if err := ix.Save(); err != nil {
				t.Fatal(err)
			}
			open := func(fsys *indexFS) (*storage.Store, *Index, string) {
				dir := t.TempDir()
				for _, name := range []string{"fix.btree", "fix.meta", "fix.edges"} {
					b, err := os.ReadFile(filepath.Join(base.Dir, name))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				defer func(real *indexFS) { osFS = real }(osFS)
				osFS = fsys
				st := memStoreFromDocs(t, tc.base)
				ix, err := Open(st, dir)
				if err != nil || ix.Health() != nil {
					t.Fatal(err, ix.Health())
				}
				ix.opts.fs = fsys
				return st, ix, dir
			}
			addDoc := func(st *storage.Store, ix *Index) error {
				n, err := xmltree.ParseString(tc.newDoc)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := st.AppendTree(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.InsertDocuments(rec); err != nil {
					return err
				}
				return ix.Save()
			}

			// Dry run: find the write-ops of the incremental phase, and see
			// which file is written when.
			dry, log := &storage.FaultPlan{}, &ioLog{}
			st, ix, _ := open(log.wrap(faultFS(dry)))
			if err := addDoc(st, ix); err != nil {
				t.Fatal(err)
			}
			events := log.since(0) // the n-th is the fault plan's n-th write-op
			if len(events) != dry.Writes() {
				t.Fatalf("logged %d of %d write-ops", len(events), dry.Writes())
			}
			committed, pages := false, 0
			for _, e := range events {
				switch {
				case e.file == journalName && e.sync:
					committed = true
				case e.file == "fix.btree" && !committed:
					t.Fatalf("%+v reached fix.btree before the journal's fsync", e)
				case e.file == "fix.btree" && !e.sync:
					pages++
				}
			}
			if pages < tc.dirtied {
				t.Fatalf("fixture: the incremental Save wrote %d pages, want at least %d", pages, tc.dirtied)
			}
			oracle := oracleCounts(t, st, tc.queries)

			for n, e := range events {
				// Flush's page writes differ in nothing but the page a crash
				// tears, and each run costs four fsyncs: one in nine, which
				// alternates plain and torn.
				if n++; e.file == "fix.btree" && !e.sync && n%9 != 0 {
					continue
				}
				pl := &storage.FaultPlan{FailWrite: n, Torn: n%2 == 0}
				st, ix, dir := open(faultFS(pl))
				if err := addDoc(st, ix); err == nil {
					t.Fatalf("write %d: expected an injected failure", n)
				} else if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("write %d: unexpected error: %v", n, err)
				}
				re, err := Open(st, dir)
				if err != nil {
					t.Fatalf("write %d: reopen: %v", n, err)
				}
				// A crash before the commit point leaves the previous
				// index, whole: stale (the store grew), never corrupt.
				if h := re.Health(); h != nil && errors.Is(h, ErrCorrupt) {
					t.Fatalf("write %d: the reopened index is torn: %v", n, h)
				}
				checkOracle(t, re, oracle, dir)
			}
		})
	}
}

// TestCrashDuringDelete drives DeleteDocument+Save into a simulated
// crash at every write operation. The store keeps the tombstone (the
// ingest WAL restores it after a real reboot), so whatever the crash
// point the index must end in one of exactly two live states — it fully
// forgot the record, or it degraded but still answers via the scan
// fallback — and both the live index and a reopen of the on-disk commit
// must match the tombstone-aware oracle.
func TestCrashDuringDelete(t *testing.T) {
	const target = uint32(1)

	build := func(pl *storage.FaultPlan) (*storage.Store, *Index, string) {
		st := memStoreFromDocs(t, bibDocs)
		o := Options{Dir: t.TempDir(), fs: faultFS(pl)}
		ix, err := Build(st, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}
		return st, ix, o.Dir
	}
	// delDoc mirrors the database layer's apply path: tombstone the
	// store, drop the index entries, persist; an index error degrades.
	delDoc := func(st *storage.Store, ix *Index) error {
		if _, err := st.MarkDeleted(target); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.DeleteDocument(target); err != nil {
			ix.Degrade(err)
			return err
		}
		return ix.Save()
	}

	// Dry run: find the write-op window of the delete phase.
	dry := &storage.FaultPlan{}
	st, ix, _ := build(dry)
	w1 := dry.Writes()
	if err := delDoc(st, ix); err != nil {
		t.Fatal(err)
	}
	w2 := dry.Writes()
	if w2 <= w1 {
		t.Fatalf("delete+save did no writes (%d..%d)", w1, w2)
	}
	oracle := oracleCounts(t, st, crashQueries)
	if full := oracleCounts(t, memStoreFromDocs(t, bibDocs), crashQueries); oracle[crashQueries[0]] >= full[crashQueries[0]] {
		t.Fatalf("deleting record %d did not change the oracle; pick a better target", target)
	}

	for n := w1 + 1; n <= w2; n++ {
		for _, torn := range []bool{false, true} {
			pl := &storage.FaultPlan{FailWrite: n, Torn: torn}
			st, ix, dir := build(pl)
			err := delDoc(st, ix)
			if err == nil {
				t.Fatalf("write %d (torn=%t): expected an injected failure", n, torn)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("write %d (torn=%t): unexpected error: %v", n, torn, err)
			}

			// Live state: degraded-but-queryable or fully applied; both
			// must match the oracle (the scan fallback and the index
			// refinement each skip tombstoned records).
			checkOracle(t, ix, oracle, "live")
			if ix.Health() == nil {
				// A healthy live index must have genuinely forgotten the
				// record: an indexed query may not touch it.
				res, qerr := query(freeze(t, ix), xpath.MustParse(crashQueries[0]))
				if qerr != nil {
					t.Fatalf("write %d (torn=%t): healthy query: %v", n, torn, qerr)
				}
				if res.Fallback {
					t.Errorf("write %d (torn=%t): healthy index fell back to scanning", n, torn)
				}
			}

			// "Reboot": the on-disk commit is either pre- or post-delete;
			// with the tombstone restored, both answer correctly.
			re, err := Open(st, dir)
			if err != nil {
				t.Fatalf("write %d (torn=%t): reopen: %v", n, torn, err)
			}
			checkOracle(t, re, oracle, "reopened")
		}
	}
}

// TestQueryCorruptPageScanFallback corrupts every non-meta B-tree page of
// a committed index and checks that queries still return exactly the
// oracle's answers via the scan fallback, that the health status reports
// the corruption, and that a rebuild restores indexed operation.
func TestQueryCorruptPageScanFallback(t *testing.T) {
	st := memStoreFromDocs(t, bibDocs)
	dir := t.TempDir()
	ix, err := Build(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	oracle := oracleCounts(t, st, crashQueries)

	path := filepath.Join(dir, "fix.btree")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := btree.DefaultPageSize + 100; off < len(buf); off += btree.DefaultPageSize {
		buf[off] ^= 0xFF
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Open reads (and verifies) every page, so the damage surfaces there:
	// the index opens degraded and its generations are frozen so.
	res, err := query(freeze(t, re), xpath.MustParse(crashQueries[1]))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Error("query against corrupt pages did not report the scan fallback")
	}
	if res.Count != oracle[crashQueries[1]] {
		t.Errorf("fallback count %d, oracle %d", res.Count, oracle[crashQueries[1]])
	}
	health := re.Health()
	if health == nil || !errors.Is(health, ErrCorrupt) || !errors.Is(health, ErrDegraded) {
		t.Fatalf("health after opening corrupt pages = %v, want ErrDegraded wrapping ErrCorrupt", health)
	}
	checkOracle(t, re, oracle, "degraded")
	if err := re.Verify(); err == nil {
		t.Error("Verify passed on a corrupt index")
	}
	if err := re.Save(); err == nil {
		t.Error("Save succeeded on a degraded index")
	}
	if err := re.InsertDocuments(0); err == nil {
		t.Error("InsertDocument succeeded on a degraded index")
	}

	// Rebuild repairs: same options, fresh files.
	reopts := re.Options()
	ix2, err := Build(st, reopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.Save(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	if re2.Health() != nil {
		t.Fatalf("rebuilt index unhealthy: %v", re2.Health())
	}
	if err := re2.Verify(); err != nil {
		t.Fatalf("rebuilt index fails verify: %v", err)
	}
	res, err = query(freeze(t, re2), xpath.MustParse(crashQueries[1]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Error("rebuilt index still using the scan fallback")
	}
	checkOracle(t, re2, oracle, "rebuilt")
}

// TestQueryLoopingLeafChainScanFallback plants what a torn write-back
// can leave in a committed index — two leaves linking to each other,
// every page checksum valid, so the freeze accepts the image — and runs
// a query whose range scan walks the whole chain. The executor must
// notice the loop, answer exactly from the scan with Fallback set and
// degrade the index, not follow the chain forever.
func TestQueryLoopingLeafChainScanFallback(t *testing.T) {
	const pageSize = 256
	var docs []string
	for i := 0; i < 400; i++ {
		docs = append(docs, bibDocs[i%len(bibDocs)])
	}
	st := memStoreFromDocs(t, docs)
	dir := t.TempDir()
	ix, err := Build(st, Options{Dir: dir, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}

	// Node header (internal/btree/node.go): byte 0 is the type (1 =
	// leaf), bytes 3..6 the next-leaf page id; the page header before it
	// is a CRC-32C of everything after the checksum field.
	const pageHeader, typeLeaf = 8, 1
	path := filepath.Join(dir, "fix.btree")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := func(id uint32) []byte { return buf[int(id)*pageSize+pageHeader+3:][:4] }
	var last, beforeLast uint32
	leaves := map[uint32]uint32{} // leaf page -> its next pointer
	for id := uint32(1); int(id+1)*pageSize <= len(buf); id++ {
		if buf[int(id)*pageSize+pageHeader] == typeLeaf {
			leaves[id] = binary.BigEndian.Uint32(next(id))
		}
	}
	for id, nx := range leaves {
		if nx == 0 {
			last = id
		}
	}
	for id, nx := range leaves {
		if nx == last {
			beforeLast = id
		}
	}
	if last == 0 || beforeLast == 0 {
		t.Fatalf("fixture has no two-leaf chain end (leaves %v)", leaves)
	}
	binary.BigEndian.PutUint32(next(last), beforeLast)
	pg := buf[int(last)*pageSize:][:pageSize]
	binary.BigEndian.PutUint32(pg[0:4], crc32.Checksum(pg[4:], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	g := freeze(t, re)
	if g.Health() != nil {
		t.Fatalf("freeze rejected checksum-valid pages: %v", g.Health())
	}
	q := xpath.MustParse("//author[email]") // no root label on a collection index: scans every leaf
	type answer struct {
		res Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := query(g, q)
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !a.res.Fallback {
			t.Error("query over a looping leaf chain did not report the scan fallback")
		}
		if _, want := bruteCount(t, st, q); a.res.Count != want {
			t.Errorf("fallback count %d, scan says %d", a.res.Count, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query still following a looping leaf chain after 10s")
	}
	if h := re.Health(); !errors.Is(h, ErrCorrupt) || !errors.Is(h, ErrDegraded) {
		t.Fatalf("health after the looping scan = %v, want ErrDegraded wrapping ErrCorrupt", h)
	}
}

// TestStaleIndexDegrades opens a committed index over a store that
// shrank since the commit — entries could dangle — and checks it refuses
// to serve: it degrades and answers by scan. Over a store that grew by
// sealed batches since the commit (the crash of a database that did not
// checkpoint them) the index is caught up instead: the documents past its
// count inserted, the deletes sealed after it removed, healthy and exact.
func TestStaleIndexDegrades(t *testing.T) {
	f := storage.NewMemFile()
	st, err := storage.NewStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bibDocs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	ix, err := Build(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}

	short, err := storage.NewStore(storage.NewMemFile(), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	for rec := 0; rec < len(bibDocs)-1; rec++ {
		b, err := st.ReadRecord(nil, uint32(rec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := short.AppendBytes(b); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(short, dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Health() == nil {
		t.Fatal("stale index opened healthy")
	}
	checkOracle(t, re, oracleCounts(t, short, crashQueries), "stale")
	res, err := query(freeze(t, re), xpath.MustParse("//author[email]"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Error("stale index did not fall back to scanning")
	}

	n, err := xmltree.ParseString(`<book><author><email>new</email></author></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTree(n); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkDeleted(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.OpenStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := Open(reopened, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.Health(); err != nil || grown.CaughtUp() != 2 {
		t.Fatalf("index behind the heap: health %v, caught up %d operations, want healthy after 2", err, grown.CaughtUp())
	}
	checkOracle(t, grown, oracleCounts(t, reopened, crashQueries), "caught up")
}

// TestOpenVersion2IndexDegrades is the hand-over from every version before
// metaVersion — 2, whose values spelled a pointer as a flag byte and a
// big-endian u64, 3, whose keys held λmin, and 4, whose keys ended in a
// sequence number, one entry a key, and whose fix.meta spelled its count
// seq, 5, whose chunks had no pair sketch, 6, whose chunk heads had no
// agreement depth, and 7, whose postings could carry spectrum tails and
// whose fix.meta spelled clustered and spectrumk lines: an index committed
// under one opens degraded, with an ErrCorrupt that names both versions
// and says to rebuild, answers exactly by scan, and still tells the
// database layer's recovery how many records it covers. A version older
// than 2, or newer than metaVersion, fails Open.
func TestOpenVersion2IndexDegrades(t *testing.T) {
	st := memStoreFromDocs(t, bibDocs)
	dir := t.TempDir()
	ix, err := Build(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fix.meta")
	meta, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(meta, []byte("version 8\n")) || !bytes.Contains(meta, []byte("\nentries ")) || bytes.Contains(meta, []byte("\nclustered ")) || bytes.Contains(meta, []byte("\nspectrumk ")) {
		t.Fatalf("fix.meta is %q", meta)
	}
	want := oracleCounts(t, st, crashQueries)
	for _, v := range []string{"2", "3", "4", "5", "6", "7"} {
		old := bytes.Replace(meta, []byte("\nvalues "), []byte("\nclustered false\nvalues "), 1)
		old = bytes.Replace(old, []byte("\npaperpruning "), []byte("\nspectrumk 0\npaperpruning "), 1)
		if v < "5" {
			old = bytes.Replace(old, []byte("\nentries "), []byte("\nseq "), 1)
		}
		copy(old, "version "+v)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(st, dir)
		if err != nil {
			t.Fatal(err)
		}
		h := re.Health()
		if !errors.Is(h, ErrCorrupt) || !errors.Is(h, ErrDegraded) || !strings.Contains(h.Error(), "version "+v) || !strings.Contains(h.Error(), "writes 8") || !strings.Contains(h.Error(), "rebuild") {
			t.Fatalf("health of a version-%s index = %v, want ErrCorrupt naming versions %s and 8 and the rebuild", v, h, v)
		}
		checkOracle(t, re, want, "version "+v)
		if n, err := CommittedRecords(dir); err != nil || n != len(bibDocs) {
			t.Errorf("CommittedRecords of a version-%s index = %d, %v; want %d", v, n, err, len(bibDocs))
		}
		_ = re.Close()
	}
	for _, v := range []string{"1", "9"} {
		copy(meta, "version "+v)
		if err := os.WriteFile(path, meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(st, dir); err == nil || !strings.Contains(err.Error(), "unsupported index version "+v) {
			t.Errorf("Open of a version-%s index: %v", v, err)
		}
	}
}

// TestBadValueIsErrCorrupt plants a chunk whose value breaks the index
// into a healthy one. A value that does not decode — an over-long uvarint,
// metaVersion 4's or 5's spelling — is an ErrCorrupt to every reader of values,
// never pointer 0: Verify and a DeleteDocuments that has to read it fail,
// and a query whose range scan meets it answers exactly by scan and
// degrades the index. One that decodes but names a record the store does
// not hold fails Verify, and so does a chunk that holds postings fix.meta does not count.
func TestBadValueIsErrCorrupt(t *testing.T) {
	q := xpath.MustParse("//author[email]") // no root label on a collection index: every partition
	_, want := bruteCount(t, memStoreFromDocs(t, bibDocs), q)
	// The read paths a bad chunk can reach, each on an index of its own:
	// the first to meet the chunk latches the health the next would see.
	// Each must answer by scan (or, for CandidatesPrepared, send its caller
	// to the scan) and leave the health ErrCorrupt.
	reads := []struct {
		name  string
		check func(g *Generation) error
	}{
		{"query", func(g *Generation) error {
			if res, err := query(g, q); err != nil || !res.Fallback || res.Count != want {
				return fmt.Errorf("= %+v, %v; want %d results by scan", res, err, want)
			}
			return nil
		}},
		{"CandidatesPrepared", func(g *Generation) error {
			if cands, _, err := g.CandidatesPrepared(context.Background(), prepare(t, g, q)); !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("= %d candidates, %v; want ErrDegraded wrapping ErrCorrupt, so its caller scans", len(cands), err)
			}
			return nil
		}},
	}
	for _, tc := range []struct {
		name    string
		val     []byte
		decodes bool
	}{
		{"an over-long uvarint", []byte{0x82, 0x00}, false},
		{"metaVersion 4's spelling", []byte{0, 0}, false},
		{"metaVersion 5's spelling", []byte{1 << 1}, false},
		{"a record the store does not hold", chunkOf(posting{0, 0}, posting{storage.MakePointer(999, 0), 0}), true},
		{"a posting nothing counts", chunkOf(posting{0, fullSketch}), true},
	} {
		for i, read := range reads {
			st := memStoreFromDocs(t, bibDocs)
			ix, err := Build(st, Options{})
			if err != nil {
				t.Fatal(err)
			}
			label, _ := ix.dict.Lookup("author")
			key := entryKey{label: label, sigma: math.Inf(1), first: 0}.encode()
			if err := ix.bt.Put(key, tc.val); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := ix.verify(true); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: verify = %v, want ErrCorrupt", tc.name, err)
				}
			}
			if tc.decodes {
				break
			}
			if i == 0 {
				// Records whose uvarints begin with every byte there is:
				// the delete decodes every value.
				every := make([]uint32, 256)
				for i := range every {
					every[i] = uint32(i)
				}
				if _, err := ix.DeleteDocuments(every); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: DeleteDocuments = %v, want ErrCorrupt", tc.name, err)
				}
			}
			if err := read.check(freeze(t, ix)); err != nil {
				t.Errorf("%s: %s %v", tc.name, read.name, err)
			}
			if h := ix.Health(); !errors.Is(h, ErrCorrupt) {
				t.Errorf("%s: health after %s = %v, want ErrCorrupt", tc.name, read.name, h)
			}
		}
	}
}

// TestOpenRejectsInvalidMeta checks that damaged metadata fails loudly
// with a descriptive error instead of constructing a broken index.
func TestOpenRejectsInvalidMeta(t *testing.T) {
	st := memStoreFromDocs(t, bibDocs)
	dir := t.TempDir()
	ix, err := Build(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fix.meta")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ old, bad, want string }{
		{"depthlimit 0", "depthlimit -3", "depthlimit"},
		{"beta 10", "beta 0", "beta"},
		{"edgebudget 3000", "edgebudget -1", "edgebudget"},
		{"alpha ", "alpha 4000000000x", "alpha"}, // see below: value replaced wholesale
	} {
		text := string(good)
		if tc.old == "alpha " {
			// Replace the whole alpha line with an out-of-range id.
			lines := strings.Split(text, "\n")
			for i, l := range lines {
				if strings.HasPrefix(l, "alpha ") {
					lines[i] = "alpha 4000000000"
				}
			}
			text = strings.Join(lines, "\n")
		} else {
			if !strings.Contains(text, tc.old) {
				t.Fatalf("meta does not contain %q:\n%s", tc.old, text)
			}
			text = strings.Replace(text, tc.old, tc.bad, 1)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(st, dir); err == nil {
			t.Errorf("%s: Open accepted invalid meta", tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the field", tc.want, err)
		}
	}
}

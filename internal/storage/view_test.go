package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/fix-index/fix/internal/xmltree"
)

// TestReadViewSnapshotIsolation freezes a view and keeps appending to
// the live store: the view's record set must not grow, and its records
// must read back byte-identical.
func TestReadViewSnapshotIsolation(t *testing.T) {
	st, err := NewStore(NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		b := bytes.Repeat([]byte{byte('a' + i)}, 20+i)
		if _, err := st.AppendBytes(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	v := st.Freeze()
	if v.NumRecords() != len(want) {
		t.Fatalf("view NumRecords = %d, want %d", v.NumRecords(), len(want))
	}
	// Keep appending: invisible to the frozen view.
	for i := 0; i < 5; i++ {
		if _, err := st.AppendBytes([]byte("later")); err != nil {
			t.Fatal(err)
		}
	}
	if v.NumRecords() != len(want) {
		t.Errorf("view grew to %d records after appends", v.NumRecords())
	}
	for rec, b := range want {
		got, err := v.Record(uint32(rec))
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("view Record(%d) = %q, %v; want %q", rec, got, err, b)
		}
	}
	if _, err := v.Record(uint32(len(want))); err == nil {
		t.Error("view served a record appended after the freeze")
	}
	if st.NumRecords() != len(want)+5 {
		t.Errorf("live store NumRecords = %d, want %d", st.NumRecords(), len(want)+5)
	}
}

// TestReadViewStatsMerge checks view I/O lands in the owning store's
// cumulative Stats.
func TestReadViewStatsMerge(t *testing.T) {
	st, err := NewStore(NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.AppendTree(xmltree.Elem("doc", xmltree.Text("x"))); err != nil {
			t.Fatal(err)
		}
	}
	v := st.Freeze()
	before := st.Stats()
	// Sequential walk: record 0 then 1 extends the last read position.
	if _, err := v.Record(0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Record(1); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.BytesRead <= before.BytesRead {
		t.Error("view reads not merged into Store.Stats bytes_read")
	}
	if after.SeqReads+after.RandomReads <= before.SeqReads+before.RandomReads {
		t.Error("view reads not classified into seq/random counters")
	}
}

// TestClearCacheReachesViews checks Store.ClearCache makes a frozen view
// read cold: the cold-cache experiments hold one view across queries.
func TestClearCacheReachesViews(t *testing.T) {
	st, err := NewStore(NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTree(xmltree.Elem("doc", xmltree.Text("x"))); err != nil {
		t.Fatal(err)
	}
	v := st.Freeze()
	read := func() Stats {
		st.ResetStats()
		if _, err := v.Record(0); err != nil {
			t.Fatal(err)
		}
		return st.Stats()
	}
	read()
	if warm := read(); warm.CachedReads != 1 || warm.BytesRead != 0 {
		t.Fatalf("second read of the same record was not cached: %+v", warm)
	}
	st.ClearCache()
	if cold := read(); cold.CachedReads != 0 || cold.BytesRead == 0 {
		t.Fatalf("read after ClearCache was served from the view's cache: %+v", cold)
	}
}

// TestTombSnapshotIsolation freezes the tombstone set and deletes more
// records afterwards: the snapshot must not change.
func TestTombSnapshotIsolation(t *testing.T) {
	st, err := NewStore(NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.AppendTree(xmltree.Elem("doc")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.MarkDeleted(1); err != nil {
		t.Fatal(err)
	}
	ts := st.TombSnapshot()
	if !ts.Has(1) || ts.Has(2) || ts.Len() != 1 {
		t.Fatalf("snapshot = {has1:%v has2:%v len:%d}, want {true false 1}", ts.Has(1), ts.Has(2), ts.Len())
	}
	if _, err := st.MarkDeleted(2); err != nil {
		t.Fatal(err)
	}
	if ts.Has(2) || ts.Len() != 1 {
		t.Error("tombstone snapshot changed after a later delete")
	}
	// A nil snapshot (no deletes ever) is safe to query.
	var nilSet *TombSet
	if nilSet.Has(0) || nilSet.Len() != 0 {
		t.Error("nil TombSet misbehaves")
	}
}

// TestTombSnapshotMatchesModel drives every operation that sets or clears
// a tombstone — MarkDeleted, UnmarkDeleted, SetDeleted, TruncateTo, with
// appends in between — against a map model: each snapshot answers Has and
// Len as the model does at that moment, keeps answering so afterwards,
// and is the previous snapshot itself exactly when nothing changed since.
func TestTombSnapshotMatchesModel(t *testing.T) {
	st, err := NewStore(NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model := map[uint32]bool{}
	var ends []int64 // heap size after each record
	type pinned struct {
		ts    *TombSet
		model map[uint32]bool
		nrec  int
	}
	var pins []pinned
	check := func(what string, p pinned) {
		t.Helper()
		if p.ts.Len() != len(p.model) {
			t.Fatalf("%s: Len = %d, model holds %d", what, p.ts.Len(), len(p.model))
		}
		for rec := uint32(0); rec < uint32(p.nrec)+130; rec++ {
			if p.ts.Has(rec) != p.model[rec] {
				t.Fatalf("%s: Has(%d) = %v, model %v", what, rec, p.ts.Has(rec), p.model[rec])
			}
		}
	}
	var last *TombSet
	for step := 0; step < 2000; step++ {
		changed := false
		nrec := len(ends)
		switch op := rng.Intn(10); {
		case op < 3 || nrec == 0:
			if _, err := st.AppendTree(xmltree.Elem("doc")); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, st.Size())
		case op < 6:
			rec := uint32(rng.Intn(nrec))
			marked, err := st.MarkDeleted(rec)
			if err != nil || marked == model[rec] {
				t.Fatalf("MarkDeleted(%d) = %v, %v; model has it: %v", rec, marked, err, model[rec])
			}
			changed, model[rec] = marked, true
		case op < 8:
			rec := uint32(rng.Intn(nrec))
			changed = model[rec]
			st.UnmarkDeleted(rec)
			delete(model, rec)
		case op == 8:
			var recs []uint32
			model = map[uint32]bool{}
			for i := 0; i < 3; i++ {
				rec := uint32(rng.Intn(nrec))
				recs, model[rec] = append(recs, rec), true
			}
			if err := st.SetDeleted(recs); err != nil {
				t.Fatal(err)
			}
			changed = true
		default:
			keep := rng.Intn(nrec + 1)
			end := int64(len(storeMagic))
			if keep > 0 {
				end = ends[keep-1]
			}
			if err := st.TruncateTo(keep, end); err != nil {
				t.Fatal(err)
			}
			ends = ends[:keep]
			for rec := range model {
				if int(rec) >= keep {
					delete(model, rec)
					changed = true
				}
			}
		}
		ts := st.TombSnapshot()
		if last != nil && (ts == last) == changed {
			t.Fatalf("step %d: tombstones changed: %v, snapshot is the previous one: %v", step, changed, ts == last)
		}
		last = ts
		now := pinned{ts, map[uint32]bool{}, len(ends)}
		for rec := range model {
			now.model[rec] = true
		}
		check(fmt.Sprintf("step %d", step), now)
		if step%100 == 0 {
			pins = append(pins, now)
		}
	}
	for i, p := range pins {
		check(fmt.Sprintf("snapshot pinned at step %d, read at the end", 100*i), p)
	}
}

// TestGuardFaultPassesOtherPanics: GuardFault turns only a memory fault
// into an error; any other panic keeps unwinding, to the caller's own
// barrier.
func TestGuardFaultPassesOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "not a fault" {
			t.Errorf("recovered %v, want the panic itself", r)
		}
	}()
	func() (err error) {
		defer GuardFault(&err)
		panic("not a fault")
	}()
	t.Error("the panic was swallowed")
}

// TestReadPassTallyMatchesPerRead reads one pointer sequence two ways —
// every read through ReadView.ReadSubtree, whose counters reach the store
// at once, and each segment through one ReadPass, which tallies them and
// flushes at the end — and requires identical cursors and identical Stats
// deltas: over a buffer read in place, a mapped file and a file with no
// region, whose views copy records out. The sequence repeats records,
// goes back and forth, reads a record in order after its predecessor, and
// clears the cache between segments.
func TestReadPassTallyMatchesPerRead(t *testing.T) {
	files := map[string]func(t *testing.T) File{
		"memory": func(*testing.T) File { return NewMemFile() },
		"disk": func(t *testing.T) File {
			f, err := Create(filepath.Join(t.TempDir(), "data.heap"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			return f
		},
		"no region": func(*testing.T) File { return (&FaultPlan{}).Wrap(NewMemFile()) },
	}
	segments := [][][2]uint32{ // (record, node index) pairs, one segment per pass
		{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 3}, {2, 1}, {1, 2}, {3, 0}, {4, 1}, {4, 1}},
		{{4, 0}, {0, 0}, {5, 2}, {5, 3}, {2, 0}, {3, 0}, {3, 2}},
		{{1, 1}},
		{{5, 1}, {5, 1}, {0, 3}, {1, 0}, {2, 0}, {3, 1}, {4, 0}, {5, 0}},
	}
	for name, open := range files {
		t.Run(name, func(t *testing.T) {
			st, err := NewStore(open(t), xmltree.NewDict())
			if err != nil {
				t.Fatal(err)
			}
			var refs [][]xmltree.Ref // the element offsets of each record, in preorder
			for i := 0; i < 6; i++ {
				doc := xmltree.Elem("doc", xmltree.Elem("a", xmltree.Text(fmt.Sprint(i))), xmltree.Elem("b", xmltree.Elem("c")))
				rec, err := st.AppendTree(doc)
				if err != nil {
					t.Fatal(err)
				}
				cur, err := st.Cursor(rec)
				if err != nil {
					t.Fatal(err)
				}
				var offs []xmltree.Ref
				var walk func(r xmltree.Ref)
				walk = func(r xmltree.Ref) {
					offs = append(offs, r)
					for it := cur.Children(r); ; {
						c, ok := it.Next()
						if !ok {
							return
						}
						walk(c)
					}
				}
				walk(0)
				refs = append(refs, offs)
			}
			type read struct {
				buf []byte
				ref xmltree.Ref
			}
			run := func(v *ReadView, pass bool) (Stats, []read) {
				st.ClearCache()
				before := st.Stats()
				var got []read
				for _, seg := range segments {
					p := v.Pass()
					for _, rn := range seg {
						ptr := MakePointer(rn[0], uint32(refs[rn[0]][rn[1]]))
						var cur xmltree.Cursor
						var ref xmltree.Ref
						var err error
						if pass {
							cur, ref, err = p.ReadSubtree(ptr)
						} else {
							cur, ref, err = v.ReadSubtree(ptr)
						}
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, read{cur.SubtreeBytes(ref), ref})
					}
					p.Flush()
					st.ClearCache()
				}
				return st.Stats().Sub(before), got
			}
			perRead, perReadGot := run(st.Freeze(), false)
			tally, tallyGot := run(st.Freeze(), true)
			if perRead != tally {
				t.Errorf("per-read delta %+v, pass tally %+v", perRead, tally)
			}
			if perRead.CachedReads == 0 || perRead.SeqReads == 0 || perRead.RandomReads == 0 {
				t.Errorf("the sequence did not reach every classification: %+v", perRead)
			}
			for i := range perReadGot {
				if !bytes.Equal(perReadGot[i].buf, tallyGot[i].buf) || perReadGot[i].ref != tallyGot[i].ref {
					t.Fatalf("read %d: per-read %d %q, pass %d %q", i, perReadGot[i].ref, perReadGot[i].buf, tallyGot[i].ref, tallyGot[i].buf)
				}
			}
		})
	}
}

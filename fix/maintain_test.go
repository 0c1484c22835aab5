package fix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/storage"
)

// flipByte inverts one byte of path in place, simulating latent on-disk
// corruption (bit rot) under a file the DB may hold open; on Linux both
// handles reach the same inode.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= off {
		t.Fatalf("%s is %d bytes; cannot corrupt offset %d", path, st.Size(), off)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCheckpointBoundsAndPublishes(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>", "<b/>"}); err != nil {
		t.Fatal(err)
	}
	if db.IngestLag() != 2 {
		t.Fatalf("IngestLag = %d before checkpoint", db.IngestLag())
	}
	preGen := db.GenerationID()
	before := db.LastCheckpoint()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.IngestLag() != 0 {
		t.Errorf("IngestLag = %d after checkpoint", db.IngestLag())
	}
	if !db.LastCheckpoint().After(before) {
		t.Error("LastCheckpoint did not advance")
	}
	if db.GenerationID() == preGen {
		t.Error("checkpoint did not publish a new generation")
	}
	// The checkpoint covers the whole heap; further ingest grows the heap
	// past it again.
	if n := db.WALBytes(); n != 0 {
		t.Fatalf("WALBytes = %d after checkpoint", n)
	}
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<c/>"}); err != nil {
		t.Fatal(err)
	}
	if db.WALBytes() <= 0 {
		t.Errorf("WALBytes = %d after an ingest", db.WALBytes())
	}

	// Cancellation is observed before the locked commit.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.CheckpointCtx(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckpointCtx(cancelled) = %v, want context.Canceled", err)
	}

	mem, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Checkpoint(); err == nil {
		t.Error("Checkpoint on an in-memory DB succeeded")
	}
}

// TestCheckpointCrashSweep simulates a crash at every write operation of
// the checkpoint window — the heap's seal and fsync and the index's
// commit — in plain and torn variants. The operations being checkpointed
// were all acknowledged before the checkpoint started, so the oracle is
// strict: every reopen must show all of them, with no at-least-once
// slack.
func TestCheckpointCrashSweep(t *testing.T) {
	t.Run("no index", func(t *testing.T) {
		sweepCheckpointCrashes(t, setupIngestBase, ingestScript, 3, checkIngestOutcome)
	})
	// A window that changed more than 256 pages of a large index: the
	// checkpoint journals and writes them all, and a crash anywhere in it
	// leaves the index healthy — the last checkpoint's plus the replayed
	// log, or this one's.
	t.Run("wide window", func(t *testing.T) {
		sweepCheckpointCrashes(t, wideBase(t), wideScript, 2, checkWideOutcome)
	})
}

// sweepCheckpointCrashes is the sweep over the checkpoint that follows
// script on the database setup makes.
func sweepCheckpointCrashes(t *testing.T, setup func(*testing.T, string) *DB, script func(*DB) (int, error), steps int,
	check func(t *testing.T, db *DB, ackedSteps int, ctx string)) {
	// Dry run: learn the deterministic write-op count of the window, and
	// which of its write-ops write a page of fix.btree.
	dry := &storage.FaultPlan{}
	pageWrites := map[int]bool{}
	restore := useFS(t, storage.WrapFiles(dry.WrapFS(storage.Disk), func(path string, f storage.File) storage.File {
		if filepath.Base(path) != "fix.btree" {
			return f
		}
		return pageLog{f, dry, pageWrites}
	}))
	dir := t.TempDir()
	db := setup(t, dir)
	if acked, err := script(db); err != nil || acked != steps {
		t.Fatalf("dry run: acked %d steps, err %v", acked, err)
	}
	w1 := dry.Writes()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w2 := dry.Writes()
	restore()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if w2 <= w1 {
		t.Fatalf("checkpoint window did no writes (%d..%d)", w1, w2)
	}

	for n := w1 + 1; n <= w2; n++ {
		// The page writes of a Flush differ in nothing but the page a
		// crash tears, and the core crash sweeps fail them: one in 64.
		if pageWrites[n] && n%64 != 0 {
			continue
		}
		for _, torn := range []bool{false, true} {
			ctx := fmt.Sprintf("write %d (torn=%t)", n, torn)
			pl := &storage.FaultPlan{FailWrite: n, Torn: torn}
			restore := useFS(t, pl.WrapFS(storage.Disk))
			dir := t.TempDir()
			db := setup(t, dir)
			if acked, err := script(db); err != nil || acked != steps {
				t.Fatalf("%s: setup acked %d steps, err %v", ctx, acked, err)
			}
			err := db.Checkpoint()
			if err == nil {
				t.Fatalf("%s: expected an injected failure", ctx)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s: unexpected error: %v", ctx, err)
			}
			// A failed checkpoint must not cost the live DB anything:
			// every acknowledged operation is still visible.
			check(t, db, steps, ctx+" (live)")
			_ = db.Close()
			restore() // "reboot": recovery sees the real files

			re, err := Open(dir)
			if err != nil {
				t.Fatalf("%s: reopen: %v", ctx, err)
			}
			check(t, re, steps, ctx)
			if err := re.Save(); err != nil {
				t.Fatalf("%s: save after recovery: %v", ctx, err)
			}
			if re.IngestLag() != 0 {
				t.Errorf("%s: IngestLag = %d after Save", ctx, re.IngestLag())
			}
			if err := re.Close(); err != nil {
				t.Fatalf("%s: close: %v", ctx, err)
			}
			re2, err := Open(dir)
			if err != nil {
				t.Fatalf("%s: second reopen: %v", ctx, err)
			}
			check(t, re2, steps, ctx+" (saved)")
			_ = re2.Close()
		}
	}
}

// pageLog marks, in pages, the number of the plan's write-op each page
// write of the file it wraps will be.
type pageLog struct {
	storage.File
	plan  *storage.FaultPlan
	pages map[int]bool
}

func (f pageLog) WriteAt(p []byte, off int64) (int, error) {
	f.pages[f.plan.Writes()+1] = true
	return f.File.WriteAt(p, off)
}

// scrubCorpus builds a persistent indexed DB big enough that its B-tree
// spans several pages, saves it, and returns its directory.
func scrubCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		doc := fmt.Sprintf("<article><sec%d><title>t%d</title><p>body</p></sec%d></article>", i%7, i, i%7)
		if _, err := db.AddDocumentString(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestScrubCleanPass(t *testing.T) {
	dir := scrubCorpus(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rep, err := db.Scrub(ScrubConfig{Chunk: 8, Pause: -1})
	if err != nil {
		t.Fatalf("scrub of a clean DB: %v", err)
	}
	if rep.Damaged() {
		t.Fatalf("clean DB reported damage: %+v", rep)
	}
	if rep.IndexPages == 0 || rep.Records != 60 {
		t.Errorf("scrub coverage: %d pages, %d records; want >0 pages, 60 records", rep.IndexPages, rep.Records)
	}
}

// TestScrubDetectsIndexCorruption flips one byte in an on-disk B-tree
// page underneath a healthy running DB — latent bit rot the page cache
// cannot see. The scrub must find it, degrade the index so queries stay
// exact via the scan fallback, and a rebuild must restore full health.
func TestScrubDetectsIndexCorruption(t *testing.T) {
	dir := scrubCorpus(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.IndexHealth() != nil {
		t.Fatalf("index degraded before the scrub ran: %v", db.IndexHealth())
	}
	// Page 0 is the meta page; damage a later page's payload.
	flipByte(t, filepath.Join(dir, "fix.btree"), 4096+217)
	rep, err := db.Scrub(ScrubConfig{Chunk: 8, Pause: -1})
	if !rep.IndexDamaged {
		t.Fatalf("scrub missed the corrupted page (report %+v, err %v)", rep, err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub error = %v, want ErrCorrupt", err)
	}
	if db.IndexHealth() == nil {
		t.Fatal("scrub did not degrade the damaged index")
	}
	// Degraded means slower, never wrong: the scan fallback stays exact.
	res, err := db.Query("//article/sec3/title")
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScanFallback {
		t.Error("degraded query did not use the scan fallback")
	}
	if res.Count == 0 {
		t.Error("degraded query lost documents")
	}

	if err := db.RebuildIndex(); err != nil {
		t.Fatalf("rebuild of the damaged index: %v", err)
	}
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("index still degraded after rebuild: %v", err)
	}
	rep, err = db.Scrub(ScrubConfig{Chunk: 8, Pause: -1})
	if err != nil || rep.Damaged() {
		t.Fatalf("scrub after rebuild: report %+v, err %v", rep, err)
	}
}

// TestMaintainerRepairsCorruptIndex is the closed loop: the background
// scrubber finds the flipped byte, degrades the index, and the next tick
// auto-rebuilds it — no operator in sight.
func TestMaintainerRepairsCorruptIndex(t *testing.T) {
	dir := scrubCorpus(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	flipByte(t, filepath.Join(dir, "fix.btree"), 4096+217)
	m, err := db.StartMaintainer(context.Background(), MaintainConfig{
		Interval: 2 * time.Millisecond,
		WALOps:   -1, WALBytes: -1, MaxAge: -1, // isolate the scrub path
		RetryBackoff:  time.Millisecond,
		ScrubInterval: 5 * time.Millisecond,
		ScrubChunk:    8,
		ScrubPause:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	waitFor(t, 10*time.Second, "scrub to find the corruption and rebuild to repair it", func() bool {
		h := m.Health()
		return h.ScrubFindings >= 1 && h.AutoRebuilds >= 1 && db.IndexHealth() == nil
	})
	res, err := db.Query("//article/sec3/title")
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanFallback {
		t.Error("query still on the scan fallback after auto-rebuild")
	}
	if res.Count == 0 {
		t.Error("auto-rebuilt index lost documents")
	}
}

// TestMaintainerRebuildsIndexDegradedAtOpen serves copies of
// index-written-by-pr42 whose index Open degrades (indexDamage): the
// maintainer's first tick finds it degraded and rebuilds it, with no
// scrub and no operator.
func TestMaintainerRebuildsIndexDegradedAtOpen(t *testing.T) {
	for name, damage := range indexDamage {
		t.Run(name, func(t *testing.T) {
			dir, db := degradedIndex(t, damage)
			m, err := db.StartMaintainer(context.Background(), MaintainConfig{
				Interval: 2 * time.Millisecond,
				WALOps:   -1, WALBytes: -1, MaxAge: -1, ScrubInterval: -1, // isolate the rebuild trigger
				RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "the maintainer to rebuild the degraded index", func() bool {
				return m.Health().AutoRebuilds >= 1 && db.IndexHealth() == nil
			})
			m.Close()
			rebuiltIndexSurvives(t, dir, db)
		})
	}
}

// TestScrubDetectsHeapBatchDamage rots one byte of a record in a sealed
// heap batch under a live DB, where the record still decodes: the batch
// no longer matches its trailer's CRC, and the scrubber must say so
// while the process still holds every document.
func TestScrubDetectsHeapBatchDamage(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<u0>abc</u0>", "<u1/>"}); err != nil {
		t.Fatal(err)
	}
	if rep, err := db.Scrub(ScrubConfig{Pause: -1}); err != nil || rep.Damaged() || rep.Records != 2 {
		t.Fatalf("scrub before the damage: report %+v, err %v", rep, err)
	}
	rec, err := db.store.ReadRecord(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The heap's magic, then record 0's length prefix; its text is its
	// last bytes.
	flipByte(t, filepath.Join(dir, "data.heap"), 8+4+int64(len(rec))-1)
	rep, err := db.Scrub(ScrubConfig{Pause: -1})
	if !rep.HeapDamaged || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub missed the damaged batch: report %+v, err %v", rep, err)
	}
	mustExist(t, db, "//u0", true)
}

// TestScrubDetectsTombstoneDamage rots the deletes of a heap batch's
// trailer under a live DB. Tombstones live in the trailers, and a
// damaged one would revive or delete the wrong document at the next
// Open, so the scrubber must flag it while the process that knows the
// true deletion set is still running.
func TestScrubDetectsTombstoneDamage(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<u0/>", "<u1/>"}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The heap ends in the delete's trailer: tag, count 1, record 0, CRC.
	size := db.store.Size()
	flipByte(t, filepath.Join(dir, "data.heap"), size-5)
	rep, err := db.Scrub(ScrubConfig{Pause: -1})
	if !rep.HeapDamaged {
		t.Fatalf("scrub missed the tombstone damage (report %+v, err %v)", rep, err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub error = %v, want ErrCorrupt", err)
	}
}

func TestMaintainerThresholdTriggers(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.StartMaintainer(context.Background(), MaintainConfig{
		Interval: 2 * time.Millisecond,
		WALOps:   3, WALBytes: -1, MaxAge: -1,
		ScrubInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>", "<b/>"}); err != nil {
		t.Fatal(err)
	}
	// Two ops sit below the threshold: the maintainer must leave them be.
	time.Sleep(50 * time.Millisecond)
	if got := m.Health().Checkpoints; got != 0 {
		t.Fatalf("checkpointed %d times below the ops threshold", got)
	}
	if db.IngestLag() != 2 {
		t.Fatalf("IngestLag = %d, want 2", db.IngestLag())
	}
	// The third op crosses it.
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<c/>"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "threshold checkpoint", func() bool {
		return db.IngestLag() == 0 && m.Health().Checkpoints >= 1
	})
	// Dirty tracking: with the WAL empty, further ticks cost nothing.
	base := m.Health().Checkpoints
	time.Sleep(50 * time.Millisecond)
	if got := m.Health().Checkpoints; got != base {
		t.Errorf("checkpointed a clean DB (%d -> %d)", base, got)
	}

	// An explicit request works regardless of thresholds.
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<d/>"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(context.Background()); err != nil {
		t.Fatalf("explicit checkpoint: %v", err)
	}
	if db.IngestLag() != 0 {
		t.Errorf("IngestLag = %d after explicit checkpoint", db.IngestLag())
	}

	m.Close()
	if err := m.Checkpoint(context.Background()); !errors.Is(err, ErrMaintainerClosed) {
		t.Errorf("Checkpoint after Close = %v, want ErrMaintainerClosed", err)
	}
	m.Close() // idempotent
}

func TestMaintainerAgeTrigger(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.StartMaintainer(context.Background(), MaintainConfig{
		Interval: 2 * time.Millisecond,
		WALOps:   -1, WALBytes: -1,
		MaxAge:        10 * time.Millisecond,
		ScrubInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "age-triggered checkpoint", func() bool {
		return db.IngestLag() == 0
	})
}

// TestMaintainerSuspendsAndRecovers drives the checkpoint failure state
// machine end to end: a directory squatting on labels.dict's temp path
// makes every checkpoint fail, MaxFailures consecutive failures suspend
// the maintainer (serving and ingest continue), and once the blocker is
// removed the next half-open probe closes the circuit.
func TestMaintainerSuspendsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<u0/>"}); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "labels.dict.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}

	m, err := db.StartMaintainer(context.Background(), MaintainConfig{
		Interval: 2 * time.Millisecond,
		WALOps:   1, WALBytes: -1, MaxAge: -1,
		RetryBackoff:  time.Millisecond,
		MaxFailures:   2,
		ProbeInterval: 10 * time.Millisecond,
		ScrubInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	waitFor(t, 10*time.Second, "suspension after repeated failures", func() bool {
		return m.Health().State == MaintainSuspended
	})
	h := m.Health()
	if h.ConsecutiveFailures < 2 || h.CheckpointFailures < 2 {
		t.Errorf("suspended after %d consecutive / %d total failures, want >= 2", h.ConsecutiveFailures, h.CheckpointFailures)
	}
	if h.LastError == "" {
		t.Error("suspended with no LastError")
	}

	// Suspension means degraded durability, not an outage: reads and
	// writes both keep working from the current base + WAL.
	mustExist(t, db, "//u0", true)
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<u1/>"}); err != nil {
		t.Fatalf("ingest while suspended: %v", err)
	}
	mustExist(t, db, "//u1", true)
	// An explicit checkpoint acts as a manual probe and reports the fault.
	if err := m.Checkpoint(context.Background()); err == nil {
		t.Error("explicit checkpoint succeeded while the disk is broken")
	}
	if db.Metrics().CheckpointFailures == 0 {
		t.Error("checkpoint failures not visible in Metrics")
	}

	// Heal the disk; the next probe recovers without intervention.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "recovery after the disk heals", func() bool {
		return m.Health().State == MaintainIdle && db.IngestLag() == 0
	})
	if m.Health().Checkpoints < 1 {
		t.Errorf("recovered with %d checkpoints", m.Health().Checkpoints)
	}
}

// TestBatchIngestMatchesSequential pins the parallel batch-indexing path
// to the sequential oracle: the same documents ingested one at a time
// and as one parallel-extracted batch must answer every query with the
// same document set, without scan fallbacks on either side.
func TestBatchIngestMatchesSequential(t *testing.T) {
	gen := func(i int) string {
		return fmt.Sprintf("<article><sec%d><p>x</p><q%d>y</q%d></sec%d></article>", i%5, i%3, i%3, i%5)
	}
	const extra = 48
	queries := []string{
		"//article/sec0/p", "//sec1[q2]", "//article[sec2]",
		"//q0", "//sec4/q1", "//article[author]/title",
	}

	seq := newTestDB(t, IndexOptions{})
	for i := 0; i < extra; i++ {
		if _, err := seq.AddDocumentString(gen(i)); err != nil {
			t.Fatal(err)
		}
	}

	bat := newTestDB(t, IndexOptions{})
	batch := make([]string, extra)
	for i := range batch {
		batch[i] = gen(i)
	}
	ids, err := bat.IngestBatchCtx(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != extra {
		t.Fatalf("batch acknowledged %d of %d documents", len(ids), extra)
	}

	for _, q := range queries {
		a, err := seq.QueryDocuments(q)
		if err != nil {
			t.Fatalf("%s (sequential): %v", q, err)
		}
		b, err := bat.QueryDocuments(q)
		if err != nil {
			t.Fatalf("%s (batch): %v", q, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: sequential %v != batch %v", q, a, b)
		}
		ra, err := seq.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := bat.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if ra.ScanFallback || rb.ScanFallback {
			t.Errorf("%s: scan fallback (sequential %t, batch %t)", q, ra.ScanFallback, rb.ScanFallback)
		}
	}
}

// TestStressMaintain mixes ingest, queries, explicit and background
// checkpoints, scrubs, and rebuilds over one DB. Run under -race it is
// the interleaving proof for the maintenance lock protocol:
//
//	FIX_STRESS=1 go test -race -run TestStressMaintain ./fix/
func TestStressMaintain(t *testing.T) {
	if os.Getenv("FIX_STRESS") == "" {
		t.Skip("set FIX_STRESS=1 to run the stress test")
	}
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := db.StartMaintainer(context.Background(), MaintainConfig{
		Interval: time.Millisecond,
		WALOps:   8, WALBytes: -1,
		MaxAge:        5 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
		ScrubInterval: 3 * time.Millisecond,
		ScrubPause:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var inserted, deleted atomic.Int64
	fail := func(op string, err error) {
		select {
		case <-stop:
		default:
			t.Errorf("%s: %v", op, err)
		}
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := []string{
					fmt.Sprintf("<w%d><n%d>v</n%d></w%d>", w, i%9, i%9, w),
					fmt.Sprintf("<w%d><m%d>v</m%d></w%d>", w, i%9, i%9, w),
				}
				ids, err := db.IngestBatchCtx(ctx, batch)
				if err != nil {
					fail("ingest", err)
					return
				}
				inserted.Add(int64(len(ids)))
				if rng.Intn(4) == 0 {
					if err := db.DeleteDocument(ids[0]); err != nil {
						fail("delete", err)
						return
					}
					deleted.Add(1)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query("//article[author]/title"); err != nil {
					fail("query", err)
					return
				}
				if _, err := db.Exists("//w1/n3"); err != nil {
					fail("exists", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // explicit checkpoint kicks racing the background policy
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				_ = m.Checkpoint(ctx)
			}
		}
	}()
	wg.Add(1)
	go func() { // foreground scrubs racing the background ones
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				// Index findings are expected here: a concurrent rebuild
				// rewrites the B-tree file in place, so a pass overlapping
				// it can see torn pages (see ScrubCtx). Heap damage would
				// be a real bug.
				rep, err := db.Scrub(ScrubConfig{Chunk: 16, Pause: -1})
				if rep.HeapDamaged {
					fail("scrub", fmt.Errorf("report %+v: %w", rep, err))
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // rebuilds racing everything
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				if err := db.RebuildIndex(); err != nil {
					fail("rebuild", err)
					return
				}
			}
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	m.Close()

	// Quiesced: a scrub pass that overlapped the final rebuild may have
	// left a stale degradation latched; one rebuild (what the maintainer
	// would do next tick) restores full health deterministically.
	if db.IndexHealth() != nil {
		if err := db.RebuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	// The index must agree exactly with the scan on every query.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.IngestLag() != 0 {
		t.Fatalf("IngestLag = %d after final checkpoint", db.IngestLag())
	}
	for _, q := range []string{"//article[author]/title", "//w0/n3", "//w1[m2]", "//book/title"} {
		idx, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := db.Query(q, ScanOnly())
		if err != nil {
			t.Fatal(err)
		}
		if idx.ScanFallback {
			t.Errorf("%s: index query fell back to scan (health %v)", q, db.IndexHealth())
		}
		if idx.Count != scan.Count {
			t.Errorf("%s: index count %d != scan count %d", q, idx.Count, scan.Count)
		}
	}
	want := len(docs) + int(inserted.Load())
	if got := db.NumDocuments(); got != want {
		t.Errorf("NumDocuments = %d, want %d", got, want)
	}
	if got := db.DeletedDocuments(); int64(got) != deleted.Load() {
		t.Errorf("DeletedDocuments = %d, want %d", got, deleted.Load())
	}

	// And the survivors are durable.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumDocuments(); got != want {
		t.Errorf("NumDocuments after reopen = %d, want %d", got, want)
	}
}

// TestNonQueryReadsDoNotCount: the reads a build, an ingest and a scrub
// make of the heap are not a query's, so on a database that has run no
// query every read counter /metrics serves stays 0.
func TestNonQueryReadsDoNotCount(t *testing.T) {
	db, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{DepthLimit: 2}); err != nil {
		t.Fatal(err)
	}
	add, err := db.AddOp(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	ing := db.NewIngester(IngestConfig{})
	if _, err := ing.Apply(context.Background(), []Op{add, DeleteOp(1)}); err != nil {
		t.Fatal(err)
	}
	_ = ing.Close()
	if rep, err := db.Scrub(ScrubConfig{Pause: -1}); err != nil || rep.Records != len(docs)+1 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	st := db.Metrics().Storage
	if st.SeqReads != 0 || st.RandomReads != 0 || st.CachedReads != 0 || st.BytesRead != 0 || st.SubtreeReads != 0 || st.SubtreeBytes != 0 {
		t.Errorf("read counters after a build, an ingest and a scrub: %+v, want 0", st)
	}
}

// TestAbandonedCheckpointLeavesNoGoroutine: a Checkpoint caller that
// gives up while the loop checkpoints gets its ctx error, the loop's
// reply lands in the caller's buffered channel instead of blocking the
// loop, and closing the ingester and the maintainer leaves no goroutine
// of theirs behind.
func TestAbandonedCheckpointLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ing := db.NewIngester(IngestConfig{})
	if _, err := ing.Add(context.Background(), "<a/>"); err != nil {
		t.Fatal(err)
	}
	m, err := db.StartMaintainer(context.Background(), MaintainConfig{
		WALOps: -1, WALBytes: -1, MaxAge: -1, ScrubInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The loop's checkpoint waits for the ingest lock while the caller's
	// deadline passes.
	db.ingestMu.Lock()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = m.Checkpoint(ctx)
	cancel()
	db.ingestMu.Unlock()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Checkpoint = %v, want the caller's deadline", err)
	}
	waitFor(t, 10*time.Second, "the loop to finish the abandoned checkpoint", func() bool {
		return m.Health().Checkpoints == 1
	})

	closed := make(chan error, 1)
	go func() {
		m.Close()
		closed <- ing.Close()
	}()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the maintenance loop is stuck on its reply")
	}
	waitFor(t, 10*time.Second, fmt.Sprintf("the goroutine count to fall back to %d", before), func() bool {
		return runtime.NumGoroutine() <= before
	})
}
